(** Software smartcard (paper §2.1).

    Each PAST user and node holds a card issued by a broker. The card's
    public key is endorsed (signed) by the broker; the card generates
    and verifies the certificates used during insert and reclaim, and
    maintains the storage quota: issuing a file certificate debits
    size × k against the usage quota; presenting a reclaim receipt
    credits the amount reclaimed.

    Hardware smartcards are simulated in software — the paper itself
    notes the card could be replaced by an on-line quota service without
    changing the protocol (see DESIGN.md §2). *)

module Signer = Past_crypto.Signer

type t

val make :
  keypair:Signer.keypair ->
  endorsement:bytes ->
  quota:int ->
  rng:Past_stdext.Rng.t ->
  t
(** Used by {!Broker.issue_card}; [quota] bounds what the holder may
    insert (bytes × replication). *)

val public : t -> Signer.public
val endorsement : t -> bytes
val node_id : t -> Past_id.Id.t
(** nodeId derived from the card's public key (§2.1). *)

val quota : t -> int
val used : t -> int
val remaining : t -> int

val endorsed_by : broker:Signer.public -> public:Signer.public -> endorsement:bytes -> bool
(** Verify a peer card's broker endorsement. *)

val endorsement_material : Signer.public -> bytes
(** The bytes a broker signs when endorsing a card (exposed for the
    broker implementation and for tests). *)

type quota_error = Quota_exceeded of { requested : int; available : int }

val issue_file_certificate :
  t ->
  name:string ->
  data:string ->
  ?declared_size:int ->
  replication:int ->
  now:float ->
  unit ->
  (Certificate.file, quota_error) result
(** Draws a fresh random salt, derives the fileId, debits
    size × replication from the quota and signs the certificate. *)

val reissue_file_certificate :
  t -> name:string -> data:string -> ?declared_size:int -> replication:int -> now:float ->
  unit -> (Certificate.file, quota_error) result
(** File diversion (§2.3 via [12]): a fresh salt gives the file a new
    fileId, targeting a different part of the ring. No additional quota
    is debited — the original debit still stands. *)

val refund_failed_insert : t -> Certificate.file -> copies_not_stored:int -> unit
(** Credit back quota for replicas that were never stored when an
    insert ultimately fails. *)

val issue_reclaim_certificate : t -> file_id:Past_id.Id.t -> now:float -> Certificate.reclaim

val credit_reclaim_receipt : t -> Certificate.reclaim_receipt -> bool
(** Verifies the receipt and credits [freed] back; returns [false] (and
    credits nothing) on a bad signature or double-presented receipt. *)

val issue_store_receipt : t -> file_id:Past_id.Id.t -> now:float -> Certificate.store_receipt
val issue_reclaim_receipt : t -> file_id:Past_id.Id.t -> freed:int -> Certificate.reclaim_receipt
