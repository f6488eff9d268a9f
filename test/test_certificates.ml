(* Certificates, smartcards, broker: the §2.1 security machinery. *)

module Cert = Past_core.Certificate
module Smartcard = Past_core.Smartcard
module Broker = Past_core.Broker
module Signer = Past_crypto.Signer
module Id = Past_id.Id
module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let broker = lazy (Broker.create ~mode:(`Rsa 256) (Rng.create 50))

let card ?(quota = 1_000_000) ?(contributed = 0) () =
  match Broker.issue_card (Lazy.force broker) ~quota ~contributed with
  | Ok c -> c
  | Error `Supply_exhausted -> Alcotest.fail "unexpected supply exhaustion"

let make_cert ?(name = "f.txt") ?(data = "contents") ?(k = 3) card =
  match Smartcard.issue_file_certificate card ~name ~data ~replication:k ~now:1.0 () with
  | Ok c -> c
  | Error _ -> Alcotest.fail "quota unexpectedly exceeded"

(* --- file certificates --- *)

let file_cert_verifies () =
  let c = make_cert (card ()) in
  check Alcotest.bool "valid" true (Cert.verify_file c);
  check Alcotest.bool "content matches" true (Cert.file_matches_content c "contents")

let file_cert_fields () =
  let c = make_cert ~data:"0123456789" ~k:5 (card ()) in
  check Alcotest.int "size" 10 c.Cert.size;
  check Alcotest.int "replication" 5 c.Cert.replication;
  check Alcotest.int "fileId width" 160 (Id.bits c.Cert.file_id)

let file_cert_tamper_detected () =
  let c = make_cert (card ()) in
  check Alcotest.bool "size tampered" false (Cert.verify_file { c with Cert.size = c.Cert.size + 1 });
  check Alcotest.bool "k tampered" false (Cert.verify_file { c with Cert.replication = 9 });
  check Alcotest.bool "id tampered" false
    (Cert.verify_file { c with Cert.file_id = Id_oracle.add_int c.Cert.file_id 1 });
  check Alcotest.bool "hash tampered" false
    (Cert.verify_file { c with Cert.content_hash = String.make 40 '0' })

let file_cert_content_mismatch () =
  let c = make_cert ~data:"real" (card ()) in
  check Alcotest.bool "other data" false (Cert.file_matches_content c "fake");
  check Alcotest.bool "wrong length" false (Cert.file_matches_content c "real+")

let file_id_depends_on_salt () =
  let card = card () in
  let c1 = make_cert card and c2 = make_cert card in
  check Alcotest.bool "fresh salt, fresh id" false (Id.equal c1.Cert.file_id c2.Cert.file_id)

let declared_size_override () =
  let card = card () in
  match
    Smartcard.issue_file_certificate card ~name:"big" ~data:"" ~declared_size:5000 ~replication:2
      ~now:0.0 ()
  with
  | Ok c ->
    check Alcotest.int "declared" 5000 c.Cert.size;
    check Alcotest.int "quota charged on declared size" 10_000 (Smartcard.used card)
  | Error _ -> Alcotest.fail "should fit"

let zero_size_cert_rejected () =
  (* A zero- or negative-size certificate would hold a replica slot on
     k nodes while evading every quota and admission check (size <=
     t * free admits size 0 against any free space, including 0). *)
  let keypair = Signer.generate (Rng.create 51) ~mode:`Insecure in
  let make size =
    ignore
      (Cert.make_file ~keypair ~owner:(Signer.public keypair) ~owner_endorsement:Bytes.empty
         ~name:"empty" ~data:"" ?declared_size:size ~replication:1 ~salt:"s" ~now:0.0 ())
  in
  let contains msg sub =
    let n = String.length sub in
    let ok = ref false in
    for i = 0 to String.length msg - n do
      if String.sub msg i n = sub then ok := true
    done;
    !ok
  in
  let rejects size =
    match make size with
    | () -> false
    | exception Invalid_argument msg ->
      (* the error must report the offending value *)
      contains msg (string_of_int (Option.get size))
  in
  check Alcotest.bool "size 0 (empty data)" true (rejects (Some 0));
  check Alcotest.bool "negative declared size" true (rejects (Some (-7)));
  make (Some 1) (* smallest legal size still fine *)

(* --- store receipts --- *)

let store_receipt_roundtrip () =
  let node_card = card ~contributed:1000 () in
  let file_id = Id.random (Rng.create 1) ~width:160 in
  let r = Smartcard.issue_store_receipt node_card ~file_id ~now:2.0 in
  check Alcotest.bool "verifies" true (Cert.verify_store_receipt r);
  check Alcotest.bool "node id embedded" true
    (Id.equal r.Cert.storing_node_id (Smartcard.node_id node_card));
  check Alcotest.bool "tamper" false
    (Cert.verify_store_receipt { r with Cert.sr_file_id = Id_oracle.add_int file_id 1 })

(* --- reclaim --- *)

let reclaim_cert_owner_binding () =
  let owner = card () in
  let other = card () in
  let c = make_cert owner in
  let rc = Smartcard.issue_reclaim_certificate owner ~file_id:c.Cert.file_id ~now:3.0 in
  check Alcotest.bool "verifies" true (Cert.verify_reclaim rc);
  check Alcotest.bool "matches file" true (Cert.reclaim_matches_file rc c);
  let rc_other = Smartcard.issue_reclaim_certificate other ~file_id:c.Cert.file_id ~now:3.0 in
  check Alcotest.bool "non-owner verifies as itself" true (Cert.verify_reclaim rc_other);
  check Alcotest.bool "but does not match the file" false (Cert.reclaim_matches_file rc_other c)

let reclaim_receipt_roundtrip () =
  let node_card = card () in
  let file_id = Id.random (Rng.create 2) ~width:160 in
  let r = Smartcard.issue_reclaim_receipt node_card ~file_id ~freed:4242 in
  check Alcotest.bool "verifies" true (Cert.verify_reclaim_receipt r);
  check Alcotest.int "freed" 4242 r.Cert.freed;
  check Alcotest.bool "tampered freed" false
    (Cert.verify_reclaim_receipt { r with Cert.freed = 9999 })

(* --- smartcard quota (§2.1 "Storage quotas") --- *)

let quota_debit () =
  let c = card ~quota:100 () in
  check Alcotest.int "initial used" 0 (Smartcard.used c);
  (match Smartcard.issue_file_certificate c ~name:"a" ~data:"0123456789" ~replication:3 ~now:0.0 () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "should fit");
  check Alcotest.int "debited size*k" 30 (Smartcard.used c);
  check Alcotest.int "remaining" 70 (Smartcard.remaining c)

let quota_exceeded () =
  let c = card ~quota:10 () in
  match Smartcard.issue_file_certificate c ~name:"a" ~data:"0123456789" ~replication:2 ~now:0.0 () with
  | Ok _ -> Alcotest.fail "should exceed"
  | Error (Smartcard.Quota_exceeded { requested; available }) ->
    check Alcotest.int "requested" 20 requested;
    check Alcotest.int "available" 10 available;
    check Alcotest.int "nothing debited" 0 (Smartcard.used c)

let reissue_does_not_debit () =
  let c = card ~quota:100 () in
  ignore (make_cert ~data:"0123456789" ~k:2 c);
  let used = Smartcard.used c in
  (match Smartcard.reissue_file_certificate c ~name:"a" ~data:"0123456789" ~replication:2 ~now:0.0 () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "reissue should succeed");
  check Alcotest.int "no extra debit" used (Smartcard.used c)

let reclaim_receipt_credits () =
  let owner = card ~quota:100 () in
  let node_card = card () in
  let cert = make_cert ~data:"0123456789" ~k:2 owner in
  check Alcotest.int "debited" 20 (Smartcard.used owner);
  let receipt = Smartcard.issue_reclaim_receipt node_card ~file_id:cert.Cert.file_id ~freed:10 in
  check Alcotest.bool "credited" true (Smartcard.credit_reclaim_receipt owner receipt);
  check Alcotest.int "after credit" 10 (Smartcard.used owner);
  (* Double presentation is rejected. *)
  check Alcotest.bool "double credit rejected" false
    (Smartcard.credit_reclaim_receipt owner receipt);
  check Alcotest.int "unchanged" 10 (Smartcard.used owner)

let bad_receipt_not_credited () =
  let owner = card ~quota:100 () in
  let node_card = card () in
  ignore (make_cert ~data:"0123456789" ~k:2 owner);
  let receipt = Smartcard.issue_reclaim_receipt node_card ~file_id:(Id.random (Rng.create 3) ~width:160) ~freed:10 in
  let forged = { receipt with Cert.freed = 100 } in
  check Alcotest.bool "forged rejected" false (Smartcard.credit_reclaim_receipt owner forged);
  check Alcotest.int "unchanged" 20 (Smartcard.used owner)

let refund_failed_insert () =
  let owner = card ~quota:100 () in
  let cert = make_cert ~data:"0123456789" ~k:3 owner in
  check Alcotest.int "debited" 30 (Smartcard.used owner);
  Smartcard.refund_failed_insert owner cert ~copies_not_stored:3;
  check Alcotest.int "refunded" 0 (Smartcard.used owner)

(* --- endorsements / broker --- *)

let endorsement_chain () =
  let b = Lazy.force broker in
  let c = card () in
  check Alcotest.bool "endorsed" true
    (Smartcard.endorsed_by ~broker:(Broker.public b) ~public:(Smartcard.public c)
       ~endorsement:(Smartcard.endorsement c));
  check Alcotest.bool "broker endorses" true
    (Broker.endorses b ~public:(Smartcard.public c) ~endorsement:(Smartcard.endorsement c));
  (* A different broker does not endorse this card. *)
  let other = Broker.create ~mode:`Insecure (Rng.create 51) in
  check Alcotest.bool "other broker rejects" false
    (Broker.endorses other ~public:(Smartcard.public c) ~endorsement:(Smartcard.endorsement c))

let node_id_from_card () =
  let c = card () in
  check Alcotest.int "128-bit" 128 (Id.bits (Smartcard.node_id c));
  check Alcotest.bool "deterministic" true
    (Id.equal (Smartcard.node_id c) (Smartcard.node_id c))

let broker_ledger () =
  let b = Broker.create ~mode:`Insecure (Rng.create 52) in
  ignore (Broker.issue_card b ~quota:100 ~contributed:0);
  ignore (Broker.issue_card b ~quota:0 ~contributed:500);
  let r = Broker.report b in
  check Alcotest.int "cards" 2 r.Broker.cards_issued;
  check Alcotest.int "quota" 100 r.Broker.total_quota;
  check Alcotest.int "supply" 500 r.Broker.total_contributed

let broker_enforces_balance () =
  let b = Broker.create ~mode:`Insecure ~enforce_balance:true (Rng.create 53) in
  (match Broker.issue_card b ~quota:0 ~contributed:100 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "supply-side card must issue");
  (match Broker.issue_card b ~quota:100 ~contributed:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "balanced demand must issue");
  match Broker.issue_card b ~quota:1 ~contributed:0 with
  | Ok _ -> Alcotest.fail "over-demand must fail"
  | Error `Supply_exhausted -> ()

let suite =
  ( "certificates",
    [
      "file cert verifies" => file_cert_verifies;
      "file cert fields" => file_cert_fields;
      "file cert tamper detected" => file_cert_tamper_detected;
      "file cert content mismatch" => file_cert_content_mismatch;
      "fileId depends on salt" => file_id_depends_on_salt;
      "declared size override" => declared_size_override;
      "zero-size certificate rejected" => zero_size_cert_rejected;
      "store receipt" => store_receipt_roundtrip;
      "reclaim owner binding" => reclaim_cert_owner_binding;
      "reclaim receipt" => reclaim_receipt_roundtrip;
      "quota debit" => quota_debit;
      "quota exceeded" => quota_exceeded;
      "reissue does not debit" => reissue_does_not_debit;
      "reclaim receipt credits" => reclaim_receipt_credits;
      "bad receipt not credited" => bad_receipt_not_credited;
      "refund failed insert" => refund_failed_insert;
      "endorsement chain" => endorsement_chain;
      "node id from card" => node_id_from_card;
      "broker ledger" => broker_ledger;
      "broker enforces balance" => broker_enforces_balance;
    ] )
