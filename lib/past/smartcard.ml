module Signer = Past_crypto.Signer
module Id = Past_id.Id
module Rng = Past_stdext.Rng

type t = {
  keypair : Signer.keypair;
  public : Signer.public;
  node_id : Id.t;
  endorsement : bytes;
  quota : int;
  mutable used : int;
  rng : Rng.t;
  (* Double-credit protection: per fileId, the storing nodes whose
     reclaim receipt for it was credited. A generic table, so ids of any
     width compare as plain bytes; the arrays hold the receipts' own
     public values, shared with the nodes' cards. *)
  seen_receipts : (Id.t, Signer.public array) Hashtbl.t;
}

let make ~keypair ~endorsement ~quota ~rng =
  if quota < 0 then invalid_arg "Smartcard.make: negative quota";
  let public = Signer.public keypair in
  {
    keypair;
    public;
    node_id = Id.node_id_of_key (Signer.public_to_string public);
    endorsement;
    quota;
    used = 0;
    rng;
    seen_receipts = Hashtbl.create 16;
  }

let public t = t.public
let endorsement t = t.endorsement
let node_id t = t.node_id
let quota t = t.quota
let used t = t.used
let remaining t = t.quota - t.used

let endorsement_material public =
  Bytes.of_string (Printf.sprintf "card:%s" (Signer.public_to_string public))

let endorsed_by ~broker ~public ~endorsement =
  Signer.verify broker (endorsement_material public) endorsement

type quota_error = Quota_exceeded of { requested : int; available : int }

let fresh_salt t = Past_crypto.Hex.of_bytes (Rng.bytes t.rng 8)

let issue_with_salt t ~name ~data ?declared_size ~replication ~now ~debit () =
  let size = match declared_size with Some s -> s | None -> String.length data in
  let charge = size * replication in
  if debit && charge > remaining t then
    Error (Quota_exceeded { requested = charge; available = remaining t })
  else begin
    if debit then t.used <- t.used + charge;
    Ok
      (Certificate.make_file ~keypair:t.keypair ~owner:t.public ~owner_endorsement:t.endorsement
         ~name ~data ?declared_size ~replication ~salt:(fresh_salt t) ~now ())
  end

let issue_file_certificate t ~name ~data ?declared_size ~replication ~now () =
  issue_with_salt t ~name ~data ?declared_size ~replication ~now ~debit:true ()

let reissue_file_certificate t ~name ~data ?declared_size ~replication ~now () =
  issue_with_salt t ~name ~data ?declared_size ~replication ~now ~debit:false ()

let refund_failed_insert t (cert : Certificate.file) ~copies_not_stored =
  if copies_not_stored < 0 || copies_not_stored > cert.Certificate.replication then
    invalid_arg "Smartcard.refund_failed_insert: bad copy count";
  t.used <- Stdlib.max 0 (t.used - (cert.Certificate.size * copies_not_stored))

let issue_reclaim_certificate t ~file_id ~now =
  Certificate.make_reclaim ~keypair:t.keypair ~owner:t.public ~file_id ~now

let credit_reclaim_receipt t (r : Certificate.reclaim_receipt) =
  let file_id = r.Certificate.rr_file_id and node = r.Certificate.rr_storing_node in
  let seen = Option.value (Hashtbl.find_opt t.seen_receipts file_id) ~default:[||] in
  if Array.exists (Signer.equal_public node) seen then false
  else if not (Certificate.verify_reclaim_receipt r) then false
  else begin
    Hashtbl.replace t.seen_receipts file_id (Array.append seen [| node |]);
    t.used <- Stdlib.max 0 (t.used - r.Certificate.freed);
    true
  end

let issue_store_receipt t ~file_id ~now =
  Certificate.make_store_receipt ~keypair:t.keypair ~node_key:t.public ~node_id:t.node_id
    ~file_id ~now

let issue_reclaim_receipt t ~file_id ~freed =
  Certificate.make_reclaim_receipt ~keypair:t.keypair ~node_key:t.public ~file_id ~freed
