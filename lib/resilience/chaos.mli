(** Scripted fault plans for chaos testing.

    A {e plan} is a set of named fault sites, each with a schedule saying
    which hits of that site fault.
    Subsystem shims consult the plan — {!Imprecise_store.Store.Io.flaky}
    asks it per IO operation, a test oracle can ask it per decision —
    and the harness asserts afterwards how often each site actually
    fired ({!hits}/{!faults}).

    Plans are deterministic (a pure function of the schedule and the hit
    order) and domain-safe: counters are mutex-guarded, so a plan can be
    shared by the parallel matching grid's worker domains. *)

(** When a site faults, in terms of its own 1-based hit count:
    - [Never] / [Always] — self-explanatory;
    - [First n] — the first [n] hits fault, later ones succeed (a
      transient fault a retry gets past);
    - [At hits] — exactly the listed hits fault;
    - [Every n] — every [n]-th hit faults. *)
type spec = Never | Always | First of int | At of int list | Every of int

type t

(** [plan sites] — a fresh plan. Sites not listed never fault (but their
    hits are still counted). *)
val plan : (string * spec) list -> t

(** [fires t site] records one hit of [site] and says whether it should
    fault this time. The injection itself is the caller's business —
    raising, returning torn data, whatever the scenario scripts. *)
val fires : t -> string -> bool

(** [hits t site] — how often [site] was consulted so far. *)
val hits : t -> string -> int

(** [faults t site] — how many of those hits fired. *)
val faults : t -> string -> int

(** All sites seen so far with their (hits, faults), sorted by name. *)
val report : t -> (string * (int * int)) list
