(** Disk-backed log-structured replica table (DESIGN.md §7): the [Log]
    arm of {!Store}, which owns the admission policy, capacity
    accounting and observer events and keeps its in-memory table as
    the other arm. This module never refuses a [put] and fires no
    events; it only maps fileIds to replica entries.

    Replica entries live in append-only segment files; an in-memory
    index maps each fileId to its newest record's location, so RAM
    holds ~50 bytes per entry while certificates and payloads stay on
    disk — the geometry that lets one simulated node hold millions of
    files. Replacement and removal append (a new record / a tombstone)
    rather than rewrite; a size-triggered compaction copies the live
    records into a fresh segment chain and unlinks the old one when
    dead bytes exceed live bytes.

    Reads use one read-only descriptor per segment, opened on the
    segment's first read and closed when compaction unlinks the
    segment or the store closes, so a store holds at most one
    descriptor per segment plus its append channel. The index keeps
    each entry's declared size and replication factor, which
    {!size_of} and {!replication_of} answer without a disk read.

    Durability model: segments are written through a buffered channel;
    {!flush} (or any read of the active segment) pushes the buffer to
    the OS. Recovery replays segments in chain order with last-record-
    wins semantics, truncates a torn tail, and tolerates a crash at any
    point of a compaction: the compacted chain carries strictly higher
    segment ids than the chain it replaces, so replaying both yields
    the same state as replaying either. *)

type kind = Primary | Diverted of { on_behalf : Past_id.Id.t }
(** A {e primary} replica is held because the node is one of the k
    closest to the fileId; a {e diverted} one on behalf of a full
    leaf-set neighbour. {!Store} re-exports this type and {!entry}. *)

type entry = { cert : Certificate.file; data : string; kind : kind }

val initial_index_size : int
(** Initial size of the fileId index, shared by {!Store}'s in-memory
    table. Two [Id.Table]s created at the same size and driven through
    the same replace/remove sequence visit ids in the same order, and
    re-replication message order — so every golden and the mem/log
    byte-compare — rides on that order. *)

type t

val create : ?dir:string -> ?segment_target:int -> unit -> t
(** Open a log store.

    [dir]: segment directory. When omitted, a scratch directory is
    created under the directory named by the [PAST_STORE_DIR]
    environment variable (a deployment path, like [TMPDIR]; the only
    variable the libraries read) or else the system temp dir, owned by
    the store: {!close} deletes it, and any leftovers are removed at
    process exit. When given, the directory is created if missing and
    an existing segment chain in it is {e replayed} — this is the
    crash-recovery path — and {!close} keeps the files.

    [segment_target] (default 8 MiB) bounds individual segment files;
    compaction triggers once dead bytes exceed both the live bytes and
    one segment. *)

val put : t -> entry -> unit
(** Insert or replace the entry keyed by [entry.cert.file_id]: appends
    a record and re-points the index, in place for a known id. *)

val get : t -> Past_id.Id.t -> entry option
(** Reads and decodes the entry's record. *)

val mem : t -> Past_id.Id.t -> bool

val size_of : t -> Past_id.Id.t -> int option
(** Declared size of the stored certificate, from the index (no disk
    read) — {!Store}'s delta-admission check for same-id replacement
    sits on this. *)

val replication_of : t -> Past_id.Id.t -> int option
(** Replication factor k of the stored certificate, from the index
    like {!size_of}. *)

val delete : t -> Past_id.Id.t -> unit
(** Drop the entry, if present, without reading it: appends a
    tombstone. *)

val iter : t -> (entry -> unit) -> unit
(** Visit every entry in index order, reading each from disk. *)

val length : t -> int

val iter_sizes : t -> (int -> unit) -> unit
(** Iterate declared sizes in index order, from the index alone. *)

val flush : t -> unit
(** Push the append buffer to the OS. *)

val close : t -> unit
(** Flush and release every descriptor. A store that created its own
    scratch directory deletes it; one opened on a caller-supplied
    directory keeps the files, so it can be reopened. *)

val compact : ?crash_before_cleanup:bool -> t -> unit
(** Force a compaction now. [crash_before_cleanup] (tests only) stops
    the store at the moment the new chain is fully written but the old
    chain is not yet unlinked — the worst-case recovery point — leaving
    both on disk and closing the store so the caller can replay it. *)

type stats = {
  segments : int;
  disk_bytes : int;  (** bytes across all segment files, dead included *)
  live_bytes : int;  (** bytes of records the index still points at *)
  entry_count : int;
  compactions : int;
  compacted_bytes : int;  (** live bytes carried over by compactions *)
}

val stats : t -> stats
