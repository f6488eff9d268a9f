(** A PAST client: a smartcard holder using some PAST node as its
    access point (paper §1: "each node is capable of initiating and
    routing client requests to insert or retrieve files").

    Operations are asynchronous over the simulated network; each takes
    a completion callback. Every operation, storage audits included,
    opens a causal span and is pending under the span's id until its
    callback runs; each reply names the operation it answers
    ([Wire.client_ref.op]), so two operations on one file, even two
    lookups of it in flight at once, settle independently. [*_sync]
    wrappers drive the event loop until the operation settles —
    convenient in examples and tests. One that has not settled after
    50,000,000 events raises [Failure] naming the operation.

    The client implements the paper's client-side checks and recovery:
    it verifies store receipts (k copies on distinct nodes), verifies
    returned content against the file certificate, retries failed
    inserts under a fresh fileId (file diversion, §2.3), and retries
    failed lookups (randomized routing makes retries take different
    paths, §2.2). *)

type t

val create :
  card:Smartcard.t ->
  access:Node.t ->
  ?op_timeout:float ->
  ?max_insert_attempts:int ->
  ?verify:bool ->
  rng:Past_stdext.Rng.t ->
  unit ->
  t
(** [op_timeout] (default 50_000 simulated time units) bounds each
    attempt; [max_insert_attempts] (default 3) caps file diversion
    retries; [verify] (default true) controls client-side receipt and
    content checks — turn it off for simulation workloads that declare
    sizes without carrying payloads.

    Failed attempts are re-sent after a full-jitter exponential
    backoff: retry [k] waits a uniform draw from
    [[0, op_timeout * 2^(k-1)]] (window capped at [2^8]) rather than
    re-sending immediately, so clients don't retry in lockstep when
    churn breaks many operations at once. *)

val card : t -> Smartcard.t
val access : t -> Node.t

type insert_result =
  | Inserted of {
      file_id : Past_id.Id.t;
      receipts : Certificate.store_receipt list;
      attempts : int;
    }
  | Insert_failed of { attempts : int; reason : string }

val insert :
  t -> name:string -> data:string -> ?declared_size:int -> k:int -> (insert_result -> unit) -> unit
(** [declared_size] supports simulation-scale workloads: the
    certificate (and all storage accounting) uses it instead of the
    payload length; requires nodes configured with
    [verify_certificates = false]. *)

type lookup_result =
  | Found of {
      cert : Certificate.file;
      data : string;
      hops : int;
      dist : float;
      server : Past_pastry.Peer.t;
    }
  | Lookup_failed

val lookup : t -> ?retries:int -> file_id:Past_id.Id.t -> (lookup_result -> unit) -> unit
(** [retries] (default 0) re-sends the request on timeout/miss, after
    an exponential backoff — combined with randomized routing this
    routes around bad nodes. *)

type reclaim_result = { receipts : Certificate.reclaim_receipt list; credited : int }

val reclaim :
  t -> file_id:Past_id.Id.t -> ?expected:int -> (reclaim_result -> unit) -> unit
(** Collects reclaim receipts until [expected] arrive or the timeout
    passes; each valid receipt credits the card's quota. *)

val insert_sync :
  t -> name:string -> data:string -> ?declared_size:int -> k:int -> unit -> insert_result
val lookup_sync : t -> ?retries:int -> file_id:Past_id.Id.t -> unit -> lookup_result
val audit_sync :
  t -> file_id:Past_id.Id.t -> data:string -> holder:Past_pastry.Peer.t -> unit -> bool
(** Random storage audit (§2.1): challenge [holder] to prove it can
    produce the file, by returning SHA-1(nonce ‖ content) for a fresh
    nonce. The auditor must know the content (it is typically the
    owner). The result is [true] iff the proof checks out before the
    timeout; nodes that diverted the replica satisfy the audit by
    chasing their pointer. *)

val reclaim_sync : t -> file_id:Past_id.Id.t -> ?expected:int -> unit -> reclaim_result
