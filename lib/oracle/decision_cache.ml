module Xml = Imprecise_xml
module Intern = Imprecise_pxml.Intern
module Obs = Imprecise_obs.Obs

(* An Imprecise_lru instance keyed by the subtree pair itself; the LRU's
   own mutex lets the integration engine consult one cache from all the
   domains deciding the verdict grid.

   Keys are INTERNED subtrees (Intern.tree), so a lookup is O(1) in the
   size of the trees: the key hash is the intern pool's cached structural
   hash (one bounded memo probe, no traversal — structural hashing here
   used to walk the whole subtree pair on every lookup), and key equality
   is two pointer checks (deep-equal trees intern to the same pointer).
   Re-interning the probe trees is itself O(1) once they have been seen:
   the pool memoizes by physical identity. *)
module Lru = Imprecise_lru.Lru.Make (struct
  type t = Xml.Tree.t * Xml.Tree.t

  let equal (a1, b1) (a2, b2) = a1 == a2 && b1 == b2

  let hash (a, b) = (Intern.tree_hash a * 31) lxor Intern.tree_hash b
end)

type t = Oracle.verdict Lru.t

let create ?(capacity = 4096) () = Lru.create ~metrics:"oracle.cache" capacity

(* Register the counters at load time, like every other layer's, so they
   are in the catalogue even for processes that never build a cache. *)
let () = ignore (create ~capacity:1 ())

let find t a b =
  let r = Lru.find t (Intern.tree a, Intern.tree b) in
  (* gated and outside the cache lock: the event sink has its own mutex *)
  if Obs.Event.enabled () then
    Obs.Event.emit ~fields:[ ("hit", Obs.Json.Bool (r <> None)) ] "oracle.cache";
  r

let add t a b value = Lru.add t (Intern.tree a, Intern.tree b) value

(* The lock is NOT held across [Oracle.decide]: a slow rule set would
   serialise every domain. Two domains may therefore decide the same
   fresh pair concurrently; both compute the same verdict (rules are
   pure by the {!Oracle} contract) and the second [add] is an idempotent
   overwrite, so the race costs duplicated work, never wrong answers.
   Conflicts are re-raised and never cached. *)
let decide t oracle a b =
  match find t a b with
  | Some v -> v
  | None ->
      let v = Oracle.decide oracle a b in
      add t a b v;
      v
