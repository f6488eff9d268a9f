(** PAST's application-level messages, carried over Pastry either
    routed (by fileId prefix) or direct (point to point).

    [client] fields identify the client's access node plus a per-client
    tag, so replies reach the right client object attached to that
    node. [op] is the causal span id of the client operation (see
    {!Past_telemetry.Trace}); every client operation, storage audits
    included, opens one. It rides every request through routing,
    replica fan-out and diversion so the whole causal tree of an
    operation can be reconstructed, and it comes back with every reply:
    the client keys its pending operations by it.

    Replies to a client are their own type, {!reply}, and cross the
    network only inside a {!To_client} envelope. *)

type client_ref = { access : Past_pastry.Peer.t; tag : int; op : int }

(** Replies to a client operation. *)
type reply =
  | Replica_ack of {
      file_id : Past_id.Id.t;
      receipt : Certificate.store_receipt;
    }  (** storing node → client (store receipt, §2.1) *)
  | Replica_nack of { file_id : Past_id.Id.t; node_id : Past_id.Id.t }
  | Lookup_hit of {
      cert : Certificate.file;
      data : string;
      hops : int;
      dist : float;
      server : Past_pastry.Peer.t;
    }
  | Lookup_miss of { file_id : Past_id.Id.t }
  | Reclaim_ack of { receipt : Certificate.reclaim_receipt }
  | Reclaim_nack of { file_id : Past_id.Id.t; reason : string }
  | Audit_proof of { file_id : Past_id.Id.t; nonce : string; proof : string }
      (** audited node → auditor; [proof = SHA-1(nonce ‖ content)],
          empty when the node cannot produce the file *)

type t =
  (* insert *)
  | Insert of { cert : Certificate.file; data : string; client : client_ref }
      (** routed to the fileId root, which coordinates the k replicas *)
  | Store_replica of { cert : Certificate.file; data : string; client : client_ref }
      (** direct: root → each node of the replica set *)
  | Divert_store of {
      cert : Certificate.file;
      data : string;
      client : client_ref;
      origin : Past_pastry.Peer.t;  (** the full node that diverts *)
    }  (** direct: full replica node → leaf-set neighbour (replica diversion) *)
  | Divert_ack of { file_id : Past_id.Id.t; holder : Past_pastry.Peer.t }
  | Divert_nack of { file_id : Past_id.Id.t; client : client_ref }
  (* lookup *)
  | Lookup of { file_id : Past_id.Id.t; client : client_ref }  (** routed *)
  (* fetch (root pulling a diverted/lost replica, re-replication) *)
  | Fetch of { file_id : Past_id.Id.t; requester : Past_pastry.Peer.t }
  | Fetch_reply of { cert : Certificate.file; data : string }
  | Fetch_miss of { file_id : Past_id.Id.t }
  (* reclaim *)
  | Reclaim of { rc : Certificate.reclaim; client : client_ref }  (** routed *)
  | Reclaim_exec of { rc : Certificate.reclaim; client : client_ref }
      (** direct: root → replica set members and pointer holders *)
  (* caching and replication maintenance *)
  | Cache_offer of { cert : Certificate.file; data : string; op : int }
      (** direct: a node serving a lookup populates route caches; [op]
          ties the offer to the lookup span that caused it *)
  | Replica_offer of { ids : Past_id.Id.t list; op : int }
      (** direct: a repair pass's one offer to a fellow replica-set
          member — the ids of every primary it holds whose replica set
          includes that member, in reverse store order. [op] is the pass's
          repair span, carried on to the want and the data. *)
  | Replica_want of { ids : Past_id.Id.t list; op : int }
      (** direct: reply to a [Replica_offer], naming the offered ids
          the receiver does not hold; never sent empty *)
  | Replicate of { cert : Certificate.file; data : string; op : int }
      (** direct: the data of one wanted id, sent only while the
          offerer still holds the file as a primary replica; the
          receiver rechecks that it lacks the file and verifies the
          certificate before storing *)
  | Audit_challenge of { file_id : Past_id.Id.t; nonce : string; client : client_ref }
      (** direct: auditor → a node that is supposed to hold the file
          (§2.1 "nodes are randomly audited to see if they can produce
          files they are supposed to store") *)
  | To_client of { tag : int; op : int; reply : reply }
      (** direct: a reply crossing the network to the client's access
          node, for the client [tag] and its operation [op] *)

