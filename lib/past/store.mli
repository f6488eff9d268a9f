(** Per-node storage with the PAST storage-management policies
    (paper §2.3, detailed in its companion [12]).

    A node stores {e primary} replicas (it is one of the k numerically
    closest to the fileId) and {e diverted} replicas (stored on behalf
    of a full leaf-set neighbour). Admission follows the
    file-size/free-space threshold rule: a file is refused when
    [size / free > t], with a laxer threshold [t_pri] for primary than
    [t_div] for diverted replicas — this biases rejections toward large
    files and leaves room for many small ones, which is what lets
    global utilization approach 100%% with few rejections. A node that
    diverts a replica keeps a {e pointer} to the actual holder.

    The replica table has two forms, chosen by {!backend} at
    {!create}: an in-memory [Id.Table] (the default), or the
    disk-backed {!Log_store} that holds millions of files in bounded
    RAM. Each operation matches on the form; policy decisions, capacity
    accounting, observer events and iteration order are the same in
    both. *)

type kind = Log_store.kind = Primary | Diverted of { on_behalf : Past_id.Id.t }

type entry = Log_store.entry = { cert : Certificate.file; data : string; kind : kind }

type backend =
  | Mem
  | Log of { dir : string option; segment_target : int option }
      (** [dir = None] uses a scratch directory, deleted on {!close};
          see {!Log_store.create}. *)

val set_default_backend : backend -> unit
(** The backend {!create} uses when none is given; [Mem] until set.
    Process-wide ([past_sim --store]): set it before any worker domain
    spawns. *)

type t

val create : capacity:int -> ?t_pri:float -> ?t_div:float -> ?backend:backend -> unit -> t
(** Thresholds default to the companion paper's values
    [t_pri = 0.1], [t_div = 0.05]. [backend] defaults to the one last
    given to {!set_default_backend}. *)

val backend_name : t -> string

val capacity : t -> int
val used : t -> int

val free : t -> int
(** Never negative: [used <= capacity] is a store invariant (monitored
    in {!System}), and [free] saturates at 0 besides. *)

val utilization : t -> float
val file_count : t -> int

val admits : t -> size:int -> kind:[ `Primary | `Diverted ] -> bool
(** The threshold admission rule (no side effects). *)

val put : t -> cert:Certificate.file -> data:string -> kind:kind -> (unit, [ `Refused ]) result
(** Store a replica if the admission rule allows. A duplicate fileId
    overwrites (idempotent re-replication) and is admitted against the
    {e size delta}: the replacement must fit in [free + old_size], with
    no threshold check — replacing a replica never counts as a new
    one, but it must not breach capacity either. *)

val force_put : t -> cert:Certificate.file -> data:string -> kind:kind -> (unit, [ `Refused ]) result
(** Store bypassing the threshold rule (still bounded by capacity, and
    by the same size-delta rule for duplicate fileIds) — the
    no-storage-management baseline. *)

val get : t -> Past_id.Id.t -> entry option
val mem : t -> Past_id.Id.t -> bool

val replication_of : t -> Past_id.Id.t -> int option
(** The stored certificate's replication factor k, from the table's
    index (no disk read on the log backend). *)

val remove_if :
  t -> Past_id.Id.t -> (Certificate.file -> bool) -> [ `Removed of entry | `Kept | `Absent ]
(** Read the entry once and remove it if [pred] holds on its
    certificate: frees the space, notifies the observer and returns the
    removed entry. [`Kept]: the predicate refused the stored entry. *)

val remove : t -> Past_id.Id.t -> entry option
(** [remove_if] with a predicate that always holds: frees the space;
    returns the removed entry. *)

val entries : t -> entry list
val iter : t -> (entry -> unit) -> unit

val iter_sizes : t -> (int -> unit) -> unit
(** Iterate declared sizes only — no entry materialisation (and no disk
    reads on the log backend); the quota-conservation monitor audits
    [used] with this. *)

val flush : t -> unit
(** Push buffered log writes to durable storage (no-op on [Mem]). *)

val close : t -> unit
(** Release the log store's resources (file handles, scratch
    directories; no-op on [Mem]). The store must not be used
    afterwards. *)

val log_stats : t -> Log_store.stats option
(** Segment/compaction counters when the backend is a log store. *)

type event = Added of Certificate.file | Removed of Certificate.file

val set_observer : t -> (event -> unit) -> unit
(** Install a mutation observer: called once per replica added to or
    removed from the store. A same-id overwrite (idempotent
    re-replication) is not an event. One observer per store (the
    invariant monitors); installing replaces the previous one. *)

val add_pointer : t -> file_id:Past_id.Id.t -> holder:Past_pastry.Peer.t -> unit
val pointer : t -> Past_id.Id.t -> Past_pastry.Peer.t option
val remove_pointer : t -> Past_id.Id.t -> unit
val pointer_count : t -> int
