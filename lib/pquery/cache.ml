module Obs = Imprecise_obs.Obs
module Lru = Imprecise_lru.Lru.Make (String)

type t = Answer.t list Lru.t

let create ?(capacity = 256) () = Lru.create ~metrics:"pquery.cache" capacity

let capacity = Lru.capacity

let length = Lru.length

let clear = Lru.clear

let find t key =
  let r = Lru.find t key in
  (* gated: no fields are built unless someone is recording events *)
  if Obs.Event.enabled () then
    Obs.Event.emit
      ~fields:[ ("hit", Obs.Json.Bool (r <> None)); ("key", Obs.Json.String key) ]
      "pquery.cache";
  r

let add = Lru.add

(* Composite key. The generation is what invalidates: every [Store.put]
   stamps the document with a fresh generation, so entries for superseded
   document states can never be hit again and age out of the LRU. Each
   string field is length-prefixed so the encoding is injective: a plain
   separator-joined key ("c#g1#v#q") collides when a collection or query
   itself contains the separator — e.g. ("c", 1, "v", "x#g1#v#x") and
   ("c#g1#v#x", 1, "v", "x") used to produce the same key. The field
   order still puts the query last so keys stay readable in debuggers. *)
let key ~collection ~generation ~variant ~query =
  Printf.sprintf "%d:%s#g%d#%d:%s#%d:%s" (String.length collection) collection
    generation (String.length variant) variant (String.length query) query

let global = create ()
