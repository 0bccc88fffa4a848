(** Deterministic random document generators for property-based tests.

    Pure functions of a {!Prng.t} state so qcheck shrinking stays
    reproducible. Sizes are kept small: these documents feed
    possible-world enumeration oracles. *)

module Tree = Imprecise_xml.Tree
module Pxml = Imprecise_pxml.Pxml
module Prng = Imprecise_prng.Prng

(** [xml rng ~depth] is a random plain XML element of bounded depth and
    fan-out, over a small tag/text alphabet (collisions are likely, which
    is what integration property tests need). *)
val xml : Prng.t -> depth:int -> Tree.t * Prng.t

(** [pxml rng ~depth] is a random {e valid} probabilistic document: layered
    structure, probabilities in (0,1] summing to 1 per probability node,
    world count kept small (≤ a few hundred). *)
val pxml : Prng.t -> depth:int -> Pxml.doc * Prng.t

(** [text rng] is a random short string over a tiny alphabet. *)
val text : Prng.t -> string * Prng.t
