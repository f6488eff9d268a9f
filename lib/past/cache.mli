(** Unused-space file cache (paper §2.3).

    Any PAST node may cache additional copies of popular files in the
    disk space not currently used for primary/diverted replicas; cached
    copies are evicted whenever real storage needs the room. The
    eviction policy of the companion paper [12] is GreedyDual-Size
    (weight H = L + 1/size, evict smallest H, L inflates to the evicted
    weight); LRU and no-caching are provided as baselines.

    Eviction takes the entry with the smallest weight; among equal
    weights, the one whose weight was set earliest (by insertion or
    by its last hit) goes first. Neither policy ever lowers a weight,
    so GD-S over files of one size evicts exactly as LRU does. Entries
    sit in a binary min-heap indexed by slot: in a cache of n entries,
    [find] and [remove] cost O(log n), and [offer] and [set_budget]
    O(log n) per entry admitted or evicted. *)

type policy = No_cache | Lru | Gds

val policy_name : policy -> string

type t

val create : policy -> t

val set_budget : t -> int -> unit
(** Cache may use at most this many bytes; shrinking evicts
    immediately. The PAST node sets it to the store's free space after
    every store mutation. *)

val used : t -> int

val find : t -> Past_id.Id.t -> (Certificate.file * string) option
(** A hit refreshes the entry's recency/weight. The PAST node counts
    hits and misses in its registry ([past.cache.hits/misses]). *)

val mem : t -> Past_id.Id.t -> bool
(** Presence test without touching recency. *)

val offer : t -> cert:Certificate.file -> data:string -> bool
(** Consider caching a copy; evicts according to policy to make room.
    Returns [true] if the file ended up cached. *)

val remove : t -> Past_id.Id.t -> unit
(** Drop a cached copy (e.g. after reclaim). *)

val entry_count : t -> int
