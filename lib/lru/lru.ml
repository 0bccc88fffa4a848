module Obs = Imprecise_obs.Obs

module Make (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  (* Classic LRU: hash table into an intrusive doubly-linked recency list,
     most-recent at the head. All operations O(1). The mutex is taken on
     every call; uncontended it costs a few nanoseconds, and it lets the
     parallel matching grid share one decision cache. *)

  type 'v node = {
    key : K.t;
    mutable value : 'v;
    mutable prev : 'v node option;  (** towards the head (more recent) *)
    mutable next : 'v node option;  (** towards the tail (least recent) *)
  }

  type 'v t = {
    lock : Mutex.t;
    tbl : 'v node Tbl.t;
    mutable head : 'v node option;
    mutable tail : 'v node option;
    capacity : int;
    c_hit : Obs.Metrics.counter;
    c_miss : Obs.Metrics.counter;
    c_evict : Obs.Metrics.counter;
  }

  let create ~metrics capacity =
    if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
    let counter suffix = Obs.Metrics.counter (metrics ^ "." ^ suffix) in
    {
      lock = Mutex.create ();
      tbl = Tbl.create 64;
      head = None;
      tail = None;
      capacity;
      c_hit = counter "hit";
      c_miss = counter "miss";
      c_evict = counter "evict";
    }

  let capacity t = t.capacity

  let length t = Mutex.protect t.lock @@ fun () -> Tbl.length t.tbl

  let clear t =
    Mutex.protect t.lock @@ fun () ->
    Tbl.reset t.tbl;
    t.head <- None;
    t.tail <- None

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    n.prev <- None;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let touch t n =
    match t.head with
    | Some h when h == n -> ()
    | _ ->
        unlink t n;
        push_front t n

  let evict_tail t =
    match t.tail with
    | None -> ()
    | Some n ->
        unlink t n;
        Tbl.remove t.tbl n.key;
        Obs.Metrics.incr t.c_evict

  let find t key =
    Mutex.protect t.lock @@ fun () ->
    match Tbl.find_opt t.tbl key with
    | Some n ->
        Obs.Metrics.incr t.c_hit;
        touch t n;
        Some n.value
    | None ->
        Obs.Metrics.incr t.c_miss;
        None

  let add t key value =
    Mutex.protect t.lock @@ fun () ->
    match Tbl.find_opt t.tbl key with
    | Some n ->
        n.value <- value;
        touch t n
    | None ->
        if Tbl.length t.tbl >= t.capacity then evict_tail t;
        let n = { key; value; prev = None; next = None } in
        Tbl.add t.tbl key n;
        push_front t n
end
