(** Bounded least-recently-used maps.

    The query-answer cache ([Pquery.Cache]) and the Oracle decision cache
    ([Decision_cache]) are both instances of {!Make}. Every operation is
    O(1) and runs under the cache's own mutex, so one cache can be shared
    by any number of domains. Hits, misses and evictions are counted in
    the global metrics registry as [<metrics>.hit] / [<metrics>.miss] /
    [<metrics>.evict], where [metrics] is the prefix given to
    {!Make.create}. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  (** [create ~metrics capacity] is an empty cache holding at most
      [capacity] entries; it registers its three counters under the
      [metrics] prefix. Raises [Invalid_argument] if [capacity <= 0]. *)
  val create : metrics:string -> int -> 'v t

  val capacity : 'v t -> int

  (** Entries currently held. *)
  val length : 'v t -> int

  val clear : 'v t -> unit

  (** [find t key] is the cached value, marking it most recently used.
      Counts a hit or a miss. *)
  val find : 'v t -> K.t -> 'v option

  (** [add t key v] inserts or replaces, evicting the least recently used
      entry when full. *)
  val add : 'v t -> K.t -> 'v -> unit
end
