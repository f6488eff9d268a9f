(* [op] is the causal span id of the client operation this message
   belongs to (Trace.no_parent when untraced): it rides every request
   through routing, replica fan-out and diversion so the whole causal
   tree of an insert/lookup can be reconstructed from the trace ring. *)
type client_ref = { access : Past_pastry.Peer.t; tag : int; op : int }

type t =
  | Insert of { cert : Certificate.file; data : string; client : client_ref }
  | Store_replica of { cert : Certificate.file; data : string; client : client_ref }
  | Divert_store of {
      cert : Certificate.file;
      data : string;
      client : client_ref;
      origin : Past_pastry.Peer.t;
    }
  | Divert_ack of { file_id : Past_id.Id.t; holder : Past_pastry.Peer.t }
  | Divert_nack of { file_id : Past_id.Id.t; client : client_ref }
  | Replica_ack of { file_id : Past_id.Id.t; receipt : Certificate.store_receipt }
  | Replica_nack of { file_id : Past_id.Id.t; node_id : Past_id.Id.t }
  | Lookup of { file_id : Past_id.Id.t; client : client_ref }
  | Lookup_hit of {
      cert : Certificate.file;
      data : string;
      hops : int;
      dist : float;
      server : Past_pastry.Peer.t;
    }
  | Lookup_miss of { file_id : Past_id.Id.t }
  | Fetch of { file_id : Past_id.Id.t; requester : Past_pastry.Peer.t }
  | Fetch_reply of { cert : Certificate.file; data : string }
  | Fetch_miss of { file_id : Past_id.Id.t }
  | Reclaim of { rc : Certificate.reclaim; client : client_ref }
  | Reclaim_exec of { rc : Certificate.reclaim; client : client_ref }
  | Reclaim_ack of { receipt : Certificate.reclaim_receipt }
  | Reclaim_nack of { file_id : Past_id.Id.t; reason : string }
  | Cache_offer of { cert : Certificate.file; data : string; op : int }
  | Replicate of { cert : Certificate.file; data : string; op : int }
  | Audit_challenge of { file_id : Past_id.Id.t; nonce : string; client : client_ref }
  | Audit_proof of { file_id : Past_id.Id.t; nonce : string; proof : string }
  | To_client of { tag : int; inner : t }

let rec describe = function
  | Insert _ -> "insert"
  | Store_replica _ -> "store_replica"
  | Divert_store _ -> "divert_store"
  | Divert_ack _ -> "divert_ack"
  | Divert_nack _ -> "divert_nack"
  | Replica_ack _ -> "replica_ack"
  | Replica_nack _ -> "replica_nack"
  | Lookup _ -> "lookup"
  | Lookup_hit _ -> "lookup_hit"
  | Lookup_miss _ -> "lookup_miss"
  | Fetch _ -> "fetch"
  | Fetch_reply _ -> "fetch_reply"
  | Fetch_miss _ -> "fetch_miss"
  | Reclaim _ -> "reclaim"
  | Reclaim_exec _ -> "reclaim_exec"
  | Reclaim_ack _ -> "reclaim_ack"
  | Reclaim_nack _ -> "reclaim_nack"
  | Cache_offer _ -> "cache_offer"
  | Replicate _ -> "replicate"
  | Audit_challenge _ -> "audit_challenge"
  | Audit_proof _ -> "audit_proof"
  | To_client { inner; _ } -> "to_client/" ^ describe inner
