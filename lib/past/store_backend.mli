(** Pluggable replica-storage backends for {!Store}.

    The {!Store} front-end owns the PAST storage-management *policy* —
    admission thresholds, capacity accounting, diversion pointers,
    mutation observers. A backend owns only the *mechanism*: a mutable
    map from fileId to replica entry. Two implementations satisfy
    {!module-type-S}: the in-memory table ({!Mem}, the historical
    behaviour and the equivalence oracle) and the disk-backed
    log-structured store ({!Log_store}, sized for millions of files).

    Backends are deliberately dumb: they never refuse a [put], never
    fire events and never touch the admission state, so the observer
    event stream, [used] accounting and refusal decisions of a [Store]
    are byte-identical regardless of backend — a property the test
    suite checks over random operation interleavings. *)

type kind = Primary | Diverted of { on_behalf : Past_id.Id.t }

type entry = { cert : Certificate.file; data : string; kind : kind }

module type S = sig
  type t

  val backend_name : string

  val put : t -> entry -> unit
  (** Insert or replace the entry keyed by [entry.cert.file_id]. *)

  val get : t -> Past_id.Id.t -> entry option
  val mem : t -> Past_id.Id.t -> bool

  val size_of : t -> Past_id.Id.t -> int option
  (** Declared size of the stored certificate, without materialising
      the entry (no disk read in the log backend) — the front-end's
      delta-admission check for same-id replacement sits on this. *)

  val replication_of : t -> Past_id.Id.t -> int option
  (** Replication factor k of the stored certificate, read like
      {!size_of} without materialising the entry — reclaim routing
      sizes its replica set with it. *)

  val delete : t -> Past_id.Id.t -> unit
  (** Drop the entry, if present, without reading it (the log backend
      appends a tombstone). {!Store.remove_if} reads the entry first
      and calls this once its predicate holds. *)

  val iter : t -> (entry -> unit) -> unit
  val length : t -> int

  val iter_sizes : t -> (int -> unit) -> unit
  (** Iterate declared sizes only — lets the quota-conservation monitor
      audit [used = sum of sizes] without decoding entries from disk. *)

  val flush : t -> unit
  (** Push buffered writes to durable storage (no-op in memory). *)

  val close : t -> unit
  (** Release resources. A backend that created its own scratch
      directory deletes it; one opened on a caller-supplied directory
      keeps the files (so it can be reopened). *)
end

module Mem : sig
  include S

  val create : unit -> t
end
