module Signer = Past_crypto.Signer
module Sha1 = Past_crypto.Sha1
module Id = Past_id.Id

type file = {
  file_id : Id.t;
  owner : Signer.public;
  owner_endorsement : bytes;
  content_hash : string;
  size : int;
  replication : int;
  salt : string;
  inserted_at : float;
  signature : bytes;
}

(* Canonical byte strings under the signatures. Fields are length-safe
   because ids and hashes are fixed-width hex and the rest are
   integers. *)
let file_material ~file_id ~owner ~content_hash ~size ~replication ~salt ~inserted_at =
  Bytes.of_string
    (Printf.sprintf "filecert:%s:%s:%s:%d:%d:%s:%h" (Id.to_hex file_id)
       (Signer.public_to_string owner) content_hash size replication salt inserted_at)

let content_hash_of data = Past_crypto.Hex.of_bytes (Sha1.digest_string data)

let make_file ~keypair ~owner ~owner_endorsement ~name ~data ?declared_size ~replication ~salt ~now () =
  if replication < 1 then invalid_arg "Certificate.make_file: replication must be >= 1";
  let file_id = Id.file_id_of_key ~name ~owner_key:(Signer.public_to_string owner) ~salt in
  let content_hash = content_hash_of data in
  let size = match declared_size with Some s -> s | None -> String.length data in
  if size <= 0 then
    invalid_arg
      (Printf.sprintf "Certificate.make_file: size must be positive, got %d (file %S)" size name);
  let material =
    file_material ~file_id ~owner ~content_hash ~size ~replication ~salt ~inserted_at:now
  in
  {
    file_id;
    owner;
    owner_endorsement;
    content_hash;
    size;
    replication;
    salt;
    inserted_at = now;
    signature = Signer.sign keypair material;
  }

let verify_file c =
  let material =
    file_material ~file_id:c.file_id ~owner:c.owner ~content_hash:c.content_hash ~size:c.size
      ~replication:c.replication ~salt:c.salt ~inserted_at:c.inserted_at
  in
  Signer.verify c.owner material c.signature

let file_matches_content c data =
  String.length data = c.size && String.equal (content_hash_of data) c.content_hash

type store_receipt = {
  sr_file_id : Id.t;
  storing_node : Signer.public;
  storing_node_id : Id.t;
  stored_at : float;
  sr_signature : bytes;
}

let store_receipt_material ~file_id ~node_key ~node_id ~now =
  Bytes.of_string
    (Printf.sprintf "storereceipt:%s:%s:%s:%h" (Id.to_hex file_id)
       (Signer.public_to_string node_key) (Id.to_hex node_id) now)

let make_store_receipt ~keypair ~node_key ~node_id ~file_id ~now =
  {
    sr_file_id = file_id;
    storing_node = node_key;
    storing_node_id = node_id;
    stored_at = now;
    sr_signature = Signer.sign keypair (store_receipt_material ~file_id ~node_key ~node_id ~now);
  }

let verify_store_receipt r =
  Signer.verify r.storing_node
    (store_receipt_material ~file_id:r.sr_file_id ~node_key:r.storing_node
       ~node_id:r.storing_node_id ~now:r.stored_at)
    r.sr_signature

type reclaim = { rc_file_id : Id.t; rc_owner : Signer.public; issued_at : float; rc_signature : bytes }

let reclaim_material ~file_id ~owner ~now =
  Bytes.of_string
    (Printf.sprintf "reclaim:%s:%s:%h" (Id.to_hex file_id) (Signer.public_to_string owner) now)

let make_reclaim ~keypair ~owner ~file_id ~now =
  {
    rc_file_id = file_id;
    rc_owner = owner;
    issued_at = now;
    rc_signature = Signer.sign keypair (reclaim_material ~file_id ~owner ~now);
  }

let verify_reclaim r =
  Signer.verify r.rc_owner
    (reclaim_material ~file_id:r.rc_file_id ~owner:r.rc_owner ~now:r.issued_at)
    r.rc_signature

let reclaim_matches_file r (c : file) =
  Id.equal r.rc_file_id c.file_id && Signer.equal_public r.rc_owner c.owner

type reclaim_receipt = {
  rr_file_id : Id.t;
  freed : int;
  rr_storing_node : Signer.public;
  rr_signature : bytes;
}

let reclaim_receipt_material ~file_id ~node_key ~freed =
  Bytes.of_string
    (Printf.sprintf "reclaimreceipt:%s:%s:%d" (Id.to_hex file_id)
       (Signer.public_to_string node_key) freed)

let make_reclaim_receipt ~keypair ~node_key ~file_id ~freed =
  {
    rr_file_id = file_id;
    freed;
    rr_storing_node = node_key;
    rr_signature = Signer.sign keypair (reclaim_receipt_material ~file_id ~node_key ~freed);
  }

let verify_reclaim_receipt r =
  Signer.verify r.rr_storing_node
    (reclaim_receipt_material ~file_id:r.rr_file_id ~node_key:r.rr_storing_node ~freed:r.freed)
    r.rr_signature
