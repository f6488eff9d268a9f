(* Security-focused end-to-end tests: audits, multi-broker networks,
   encryption layering and forgery attempts (§2.1). *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Store = Past_core.Store
module Broker = Past_core.Broker
module Smartcard = Past_core.Smartcard
module Cert = Past_core.Certificate
module Cipher = Stream_cipher
module Signer = Past_crypto.Signer
module PNode = Past_pastry.Node
module Id = Past_id.Id
module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let build ?(n = 40) ?(broker_count = 1) ?(seed = 90) () =
  System.create ~seed ~n ~broker_count ~crypto_mode:(`Rsa 256)
    ~node_capacity:(fun _ _ -> 1_000_000)
    ()

type inserted = { file_id : Id.t; data : string }

let insert_exn client ~name ~data ~k =
  match Client.insert_sync client ~name ~data ~k () with
  | Client.Inserted { file_id; _ } -> { file_id; data }
  | Client.Insert_failed { reason; _ } -> Alcotest.failf "insert failed: %s" reason

let holders sys file_id =
  Array.to_list (System.nodes sys) |> List.filter (fun n -> Store.mem (Node.store n) file_id)

(* --- audits --- *)

let audit_honest_node_passes () =
  let sys = build () in
  let client = System.new_client sys ~quota:100_000 () in
  let f = insert_exn client ~name:"audited" ~data:"prove you have me" ~k:3 in
  List.iter
    (fun node ->
      let ok =
        Client.audit_sync client ~file_id:f.file_id ~data:f.data
          ~holder:(PNode.self (Node.pastry node))
          ()
      in
      check Alcotest.bool "honest holder passes" true ok)
    (holders sys f.file_id)

let audit_cheater_fails () =
  let sys = build () in
  let client = System.new_client sys ~op_timeout:3_000.0 ~quota:100_000 () in
  let f = insert_exn client ~name:"cheat" ~data:"the goods" ~k:3 in
  (* A cheating node silently drops the file. *)
  let cheater = List.hd (holders sys f.file_id) in
  ignore (Store.remove (Node.store cheater) f.file_id);
  let ok =
    Client.audit_sync client ~file_id:f.file_id ~data:f.data
      ~holder:(PNode.self (Node.pastry cheater))
      ()
  in
  check Alcotest.bool "cheater exposed" false ok;
  (* Honest nodes still pass. *)
  match holders sys f.file_id with
  | honest :: _ ->
    check Alcotest.bool "honest still passes" true
      (Client.audit_sync client ~file_id:f.file_id ~data:f.data
         ~holder:(PNode.self (Node.pastry honest))
         ())
  | [] -> Alcotest.fail "no honest holders left"

let audit_wrong_content_fails () =
  let sys = build () in
  let client = System.new_client sys ~op_timeout:3_000.0 ~quota:100_000 () in
  let f = insert_exn client ~name:"swap" ~data:"original" ~k:3 in
  (* Auditing with the wrong expected content must fail even against an
     honest node: the proof binds the exact bytes. *)
  let holder = List.hd (holders sys f.file_id) in
  let ok =
    Client.audit_sync client ~file_id:f.file_id ~data:"not the original"
      ~holder:(PNode.self (Node.pastry holder))
      ()
  in
  check Alcotest.bool "wrong content detected" false ok

let audit_follows_diversion_pointer () =
  (* A node holding only a pointer (replica diverted) must still be
     able to satisfy the audit by chasing it. *)
  let sys = build ~n:25 ~seed:91 () in
  let client = System.new_client sys ~quota:10_000_000 () in
  let f = insert_exn client ~name:"divert-audit" ~data:(String.make 2_000 'p') ~k:3 in
  (* Manufacture a diversion after the fact: move the replica from one
     holder to a non-holder, leaving a pointer. *)
  let all = Array.to_list (System.nodes sys) in
  let holder = List.hd (holders sys f.file_id) in
  let other =
    List.find (fun n -> not (Store.mem (Node.store n) f.file_id)) all
  in
  (match Store.remove (Node.store holder) f.file_id with
  | Some entry ->
    (match
       Store.put (Node.store other) ~cert:entry.Store.cert ~data:entry.Store.data
         ~kind:(Store.Diverted { on_behalf = Node.id holder })
     with
    | Ok () -> ()
    | Error `Refused -> Alcotest.fail "target refused");
    Store.add_pointer (Node.store holder) ~file_id:f.file_id
      ~holder:(PNode.self (Node.pastry other))
  | None -> Alcotest.fail "holder had no entry");
  let ok =
    Client.audit_sync client ~file_id:f.file_id ~data:f.data
      ~holder:(PNode.self (Node.pastry holder))
      ()
  in
  check Alcotest.bool "pointer chased" true ok

(* --- multiple brokers (§2.1: competing brokers co-exist) --- *)

let multi_broker_network () =
  let sys = build ~n:30 ~broker_count:3 ~seed:92 () in
  check Alcotest.int "three brokers" 3 (Array.length (System.brokers sys));
  (* Clients of different brokers can all insert, and files store on
     nodes carded by yet other brokers. *)
  let c0 = System.new_client sys ~broker_index:0 ~quota:100_000 () in
  let c2 = System.new_client sys ~broker_index:2 ~quota:100_000 () in
  let f0 = insert_exn c0 ~name:"b0" ~data:"from broker 0" ~k:3 in
  let f2 = insert_exn c2 ~name:"b2" ~data:"from broker 2" ~k:3 in
  (match Client.lookup_sync c2 ~file_id:f0.file_id () with
  | Client.Found { data; _ } -> check Alcotest.string "cross-broker fetch" "from broker 0" data
  | Client.Lookup_failed -> Alcotest.fail "lookup failed");
  match Client.lookup_sync c0 ~file_id:f2.file_id () with
  | Client.Found _ -> ()
  | Client.Lookup_failed -> Alcotest.fail "lookup failed"

let foreign_broker_cert_rejected () =
  (* A certificate endorsed by a broker the network does not trust is
     refused by storage nodes. *)
  let sys = build ~n:25 ~seed:93 () in
  let rogue_broker = Broker.create ~mode:(`Rsa 256) (Rng.create 999) in
  let rogue_card =
    match Broker.issue_card rogue_broker ~quota:1_000_000 ~contributed:0 with
    | Ok c -> c
    | Error _ -> assert false
  in
  let access = (System.nodes sys).(0) in
  let rogue_client =
    Client.create ~card:rogue_card ~access ~op_timeout:3_000.0 ~rng:(Rng.create 7) ()
  in
  match Client.insert_sync rogue_client ~name:"rogue" ~data:"untrusted" ~k:3 () with
  | Client.Inserted _ -> Alcotest.fail "rogue cert accepted"
  | Client.Insert_failed _ -> ()

(* --- encryption layering (§2.1 "Data privacy and integrity") --- *)

let cipher_roundtrip () =
  let key = Cipher.derive_key ~passphrase:"hunter2" in
  let plain = String.init 10_000 (fun i -> Char.chr (i mod 256)) in
  let cipher = Cipher.encrypt ~key ~nonce:"n1" plain in
  check Alcotest.bool "ciphertext differs" false (String.equal plain cipher);
  check Alcotest.string "roundtrip" plain (Cipher.decrypt ~key ~nonce:"n1" cipher);
  check Alcotest.bool "wrong key garbles" false
    (String.equal plain
       (Cipher.decrypt ~key:(Cipher.derive_key ~passphrase:"wrong") ~nonce:"n1" cipher));
  check Alcotest.bool "wrong nonce garbles" false
    (String.equal plain (Cipher.decrypt ~key ~nonce:"n2" cipher))

let encrypted_file_private_in_store () =
  let sys = build ~n:25 ~seed:94 () in
  let client = System.new_client sys ~quota:100_000 () in
  let key = Cipher.derive_key ~passphrase:"secret" in
  let plain = "top secret payload" in
  let f = insert_exn client ~name:"vault" ~data:(Cipher.encrypt ~key ~nonce:"v" plain) ~k:3 in
  (* Storage nodes hold only ciphertext. *)
  List.iter
    (fun node ->
      match Store.get (Node.store node) f.file_id with
      | Some entry ->
        check Alcotest.bool "store holds ciphertext" false
          (String.length entry.Store.data >= String.length plain
          && String.equal (String.sub entry.Store.data 0 (String.length plain)) plain)
      | None -> Alcotest.fail "replica missing")
    (holders sys f.file_id);
  (* The key holder recovers the plaintext through a normal lookup. *)
  match Client.lookup_sync client ~file_id:f.file_id () with
  | Client.Found { data; _ } ->
    check Alcotest.string "decrypts" plain (Cipher.decrypt ~key ~nonce:"v" data)
  | Client.Lookup_failed -> Alcotest.fail "lookup failed"

(* --- pseudonymity (§2.1): distinct cards are unlinkable keys --- *)

let pseudonyms_are_unlinkable_keys () =
  let sys = build ~n:20 ~seed:95 () in
  let a = System.new_client sys ~quota:100_000 () in
  let b = System.new_client sys ~quota:100_000 () in
  check Alcotest.bool "distinct pseudonyms" false
    (Signer.equal_public
       (Smartcard.public (Client.card a))
       (Smartcard.public (Client.card b)))

let suite =
  ( "security",
    [
      "audit: honest node passes" => audit_honest_node_passes;
      "audit: cheater exposed" => audit_cheater_fails;
      "audit: wrong content detected" => audit_wrong_content_fails;
      "audit: diversion pointer chased" => audit_follows_diversion_pointer;
      "multi-broker network" => multi_broker_network;
      "foreign broker cert rejected" => foreign_broker_cert_rejected;
      "stream cipher roundtrip" => cipher_roundtrip;
      "encrypted file private in store" => encrypted_file_private_in_store;
      "pseudonyms unlinkable" => pseudonyms_are_unlinkable_keys;
    ] )
