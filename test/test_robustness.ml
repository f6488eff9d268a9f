(* Failure-injection and miscellaneous coverage: lossy networks,
   id/nat conversions, Pastry message labels. *)

module System = Past_core.System
module Client = Past_core.Client
module Id = Past_id.Id
module Nat = Past_bignum.Nat
module Net = Past_simnet.Net
module Topology = Past_simnet.Topology
module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

(* --- PAST over a lossy network --- *)

let lossy_network_inserts_with_retries () =
  (* 3% independent message loss: some insert attempts lose acks and
     time out, but the client's retry loop (file diversion budget)
     pushes the success rate up. *)
  let sys =
    System.create ~loss_rate:0.03 ~seed:80 ~n:40 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 1_000_000)
      ()
  in
  let client =
    System.new_client sys ~op_timeout:8_000.0 ~max_insert_attempts:4 ~quota:max_int ()
  in
  let ok = ref 0 in
  let attempts_used = ref 0 in
  for i = 1 to 30 do
    match Client.insert_sync client ~name:(Printf.sprintf "lossy-%d" i) ~data:"payload" ~k:3 () with
    | Client.Inserted { attempts; _ } ->
      incr ok;
      attempts_used := !attempts_used + attempts
    | Client.Insert_failed _ -> ()
  done;
  check Alcotest.bool (Printf.sprintf "most inserts succeed (%d/30)" !ok) true (!ok >= 25);
  check Alcotest.bool "retries actually used" true (!attempts_used >= !ok)

let lossy_network_lookups_with_retries () =
  let sys =
    System.create ~loss_rate:0.05 ~seed:81 ~n:40 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 1_000_000)
      ()
  in
  let writer = System.new_client sys ~op_timeout:8_000.0 ~quota:max_int () in
  let ids = ref [] in
  for i = 1 to 10 do
    match Client.insert_sync writer ~name:(string_of_int i) ~data:"d" ~k:4 () with
    | Client.Inserted { file_id; _ } -> ids := file_id :: !ids
    | Client.Insert_failed _ -> ()
  done;
  let reader = System.new_client sys ~op_timeout:8_000.0 ~quota:0 () in
  let ok = ref 0 in
  List.iter
    (fun file_id ->
      match Client.lookup_sync reader ~retries:4 ~file_id () with
      | Client.Found _ -> incr ok
      | Client.Lookup_failed -> ())
    !ids;
  check Alcotest.bool
    (Printf.sprintf "lookups ride out losses (%d/%d)" !ok (List.length !ids))
    true
    (!ok = List.length !ids)

(* --- Id <-> Nat conversions --- *)

let id_nat_roundtrip () =
  let rng = Rng.create 2 in
  for _ = 1 to 100 do
    let id = Id.random rng ~width:128 in
    check Alcotest.bool "roundtrip" true
      (Id.equal id (Id_oracle.of_nat ~width:128 (Id_oracle.to_nat id)))
  done;
  (* of_nat reduces modulo 2^width *)
  let big = Nat.shift_left Nat.one 130 in
  check Alcotest.bool "mod 2^128" true
    (Id.equal (Id.zero ~width:128) (Id_oracle.of_nat ~width:128 big))

let pastry_message_describe () =
  let peer = Past_pastry.Peer.make ~id:(Id.zero ~width:128) ~addr:0 in
  let open Past_pastry.Message in
  let labels =
    [
      describe (Announce { from = peer });
      describe (Keepalive { from = peer });
      describe (Keepalive_ack { from = peer });
      describe (Leaf_request { from = peer });
      describe (Join_rows { from = peer; rows = [] });
      describe (Nbhd_reply { from = peer; peers = [] });
    ]
  in
  check Alcotest.int "distinct" 6 (List.length (List.sort_uniq compare labels))

let suite =
  ( "robustness",
    [
      "lossy net: inserts with retries" => lossy_network_inserts_with_retries;
      "lossy net: lookups with retries" => lossy_network_lookups_with_retries;
      "id/nat roundtrip" => id_nat_roundtrip;
      "pastry message describe" => pastry_message_describe;
    ] )
