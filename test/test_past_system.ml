(* End-to-end PAST tests: insert / lookup / reclaim with the full
   certificate machinery, replication, failure recovery, diversion and
   caching. *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Store = Past_core.Store
module Cache = Past_core.Cache
module Cert = Past_core.Certificate
module Smartcard = Past_core.Smartcard
module Id = Past_id.Id
module Overlay = Past_pastry.Overlay
module PNode = Past_pastry.Node
module Net = Past_simnet.Net
module Churn = Past_simnet.Churn
module Trace = Past_telemetry.Trace
module Monitor = Past_telemetry.Monitor
module Registry = Past_telemetry.Registry

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let small_system ?(n = 40) ?(node_config = Node.default_config) ?(seed = 70) () =
  System.create ~node_config ~seed ~n ~crypto_mode:(`Rsa 256)
    ~node_capacity:(fun _ _ -> 1_000_000)
    ()

type insert_ok = { file_id : Id.t; receipts : Cert.store_receipt list; attempts : int }

let insert_exn client ~name ~data ~k =
  match Client.insert_sync client ~name ~data ~k () with
  | Client.Inserted { file_id; receipts; attempts } -> { file_id; receipts; attempts }
  | Client.Insert_failed { reason; _ } -> Alcotest.failf "insert failed: %s" reason

(* Count live replicas of a file across all stores. *)
let replica_count sys file_id =
  Array.fold_left
    (fun acc node -> if Store.mem (Node.store node) file_id then acc + 1 else acc)
    0 (System.nodes sys)

let insert_lookup_roundtrip () =
  let sys = small_system () in
  let client = System.new_client sys ~quota:1_000_000 () in
  let data = String.init 2048 (fun i -> Char.chr (i mod 256)) in
  let r = insert_exn client ~name:"doc" ~data ~k:4 in
  check Alcotest.int "k receipts" 4 (List.length r.receipts);
  check Alcotest.int "one attempt" 1 r.attempts;
  (* every receipt verifies and came from a distinct node *)
  List.iter
    (fun receipt -> check Alcotest.bool "receipt valid" true (Cert.verify_store_receipt receipt))
    r.receipts;
  let nodes =
    List.sort_uniq compare
      (List.map (fun rc -> Id.to_hex rc.Cert.storing_node_id) r.receipts)
  in
  check Alcotest.int "distinct storing nodes" 4 (List.length nodes);
  (* lookup from a different access point returns identical content *)
  let other = System.new_client sys ~quota:0 () in
  match Client.lookup_sync other ~file_id:r.file_id () with
  | Client.Found { data = d; cert; _ } ->
    check Alcotest.string "content" data d;
    check Alcotest.bool "cert verifies" true (Cert.verify_file cert)
  | Client.Lookup_failed -> Alcotest.fail "lookup failed"

let replicas_on_closest_nodes () =
  let sys = small_system () in
  let client = System.new_client sys ~quota:1_000_000 () in
  let r = insert_exn client ~name:"placed" ~data:"0123456789" ~k:3 in
  check Alcotest.int "3 copies" 3 (replica_count sys r.file_id);
  (* The copies sit on the 3 nodes numerically closest to the fileId. *)
  let expected =
    Overlay.sorted_neighbours (System.overlay sys) (Id.prefix_of_file_id r.file_id) ~k:3
    |> List.map PNode.addr |> List.sort compare
  in
  let actual =
    Array.to_list (System.nodes sys)
    |> List.filter (fun n -> Store.mem (Node.store n) r.file_id)
    |> List.map Node.addr |> List.sort compare
  in
  check (Alcotest.list Alcotest.int) "replica placement" expected actual

let immutability_same_name_new_id () =
  (* Inserting the same name twice yields distinct fileIds (fresh
     salt): files are immutable, there is no overwrite (§1). *)
  let sys = small_system () in
  let client = System.new_client sys ~quota:1_000_000 () in
  let r1 = insert_exn client ~name:"same" ~data:"v1" ~k:2 in
  let r2 = insert_exn client ~name:"same" ~data:"v2" ~k:2 in
  check Alcotest.bool "distinct ids" false (Id.equal r1.file_id r2.file_id);
  let c = System.new_client sys ~quota:0 () in
  (match Client.lookup_sync c ~file_id:r1.file_id () with
  | Client.Found { data; _ } -> check Alcotest.string "v1 intact" "v1" data
  | Client.Lookup_failed -> Alcotest.fail "v1 lost")

let lookup_missing_file () =
  let sys = small_system () in
  let client = System.new_client sys ~op_timeout:2_000.0 ~quota:0 () in
  match Client.lookup_sync client ~file_id:(Id.random (System.rng sys) ~width:160) () with
  | Client.Lookup_failed -> ()
  | Client.Found _ -> Alcotest.fail "found a file that was never inserted"

let reclaim_frees_and_credits () =
  let sys = small_system () in
  let client = System.new_client sys ~quota:100_000 () in
  let data = String.make 1000 'x' in
  let r = insert_exn client ~name:"temp" ~data ~k:3 in
  check Alcotest.int "debited" 3000 (Smartcard.used (Client.card client));
  let rc = Client.reclaim_sync client ~file_id:r.file_id ~expected:3 () in
  check Alcotest.int "3 receipts" 3 (List.length rc.Client.receipts);
  check Alcotest.int "credited back" 3000 rc.Client.credited;
  check Alcotest.int "quota restored" 0 (Smartcard.used (Client.card client));
  check Alcotest.int "copies gone" 0 (replica_count sys r.file_id)

let reclaim_by_non_owner_rejected () =
  let sys = small_system () in
  let owner = System.new_client sys ~quota:100_000 () in
  let attacker = System.new_client sys ~op_timeout:2_000.0 ~quota:100_000 () in
  let r = insert_exn owner ~name:"mine" ~data:"private" ~k:3 in
  let rc = Client.reclaim_sync attacker ~file_id:r.file_id () in
  check Alcotest.int "no receipts for attacker" 0 (List.length rc.Client.receipts);
  check Alcotest.int "copies intact" 3 (replica_count sys r.file_id)

let availability_under_failures () =
  (* k = 4 replicas survive the loss of 3 of their holders (§2:
     "a file remains available as long as one of the k nodes ... is
     alive"). *)
  let sys = small_system ~n:50 () in
  let client = System.new_client sys ~quota:1_000_000 () in
  let data = String.make 500 'a' in
  let r = insert_exn client ~name:"durable" ~data ~k:4 in
  let holders =
    Array.to_list (System.nodes sys)
    |> List.filter (fun n -> Store.mem (Node.store n) r.file_id)
  in
  check Alcotest.int "4 holders" 4 (List.length holders);
  (match holders with
  | _ :: rest -> List.iter (System.kill_node sys) rest
  | [] -> Alcotest.fail "no holders");
  let reader = System.new_client sys ~quota:0 () in
  match Client.lookup_sync reader ~file_id:r.file_id () with
  | Client.Found { data = d; _ } -> check Alcotest.string "still served" data d
  | Client.Lookup_failed -> Alcotest.fail "file unavailable with one live replica"

let re_replication_after_failure () =
  let sys = small_system ~n:40 () in
  let client = System.new_client sys ~quota:1_000_000 () in
  let r = insert_exn client ~name:"healed" ~data:"replica-data" ~k:3 in
  check Alcotest.int "3 copies" 3 (replica_count sys r.file_id);
  let victim =
    Array.to_list (System.nodes sys)
    |> List.find (fun n -> Store.mem (Node.store n) r.file_id)
  in
  System.start_maintenance sys;
  System.kill_node sys victim;
  (* Let failure detection + re-replication run. *)
  let cfg = Past_pastry.Config.default in
  let horizon =
    Net.now (System.net sys)
    +. (3.0 *. cfg.Past_pastry.Config.failure_timeout)
    +. (3.0 *. cfg.Past_pastry.Config.keepalive_period)
    +. 1_000.0
  in
  System.run ~until:horizon sys;
  System.stop_maintenance sys;
  System.run ~until:(horizon +. 10_000.0) sys;
  let live_copies =
    Array.fold_left
      (fun acc node ->
        if Node.addr node <> Node.addr victim && Store.mem (Node.store node) r.file_id then acc + 1
        else acc)
      0 (System.nodes sys)
  in
  check Alcotest.bool
    (Printf.sprintf "replication restored (%d live copies)" live_copies)
    true (live_copies >= 3)

let diversion_keeps_file_reachable () =
  (* One deliberately tiny node in the replica set forces a replica
     diversion; the file must still be found. *)
  let node_config = { Node.default_config with Node.verify_certificates = true } in
  let sys =
    System.create ~node_config ~seed:71 ~n:30 ~crypto_mode:(`Rsa 256)
      ~node_capacity:(fun i _ -> if i mod 3 = 0 then 2_000 else 1_000_000)
      ()
  in
  let client = System.new_client sys ~quota:2_000_000 () in
  let data = String.make 1_000 'd' in
  (* Insert enough files that some replica set hits a tiny node. *)
  let ids = ref [] in
  for i = 1 to 30 do
    match Client.insert_sync client ~name:(Printf.sprintf "d%d" i) ~data ~k:3 () with
    | Client.Inserted { file_id; _ } -> ids := file_id :: !ids
    | Client.Insert_failed _ -> ()
  done;
  check Alcotest.bool "most inserts accepted" true (List.length !ids >= 25);
  let diverted =
    Array.fold_left (fun acc n -> acc + Store.pointer_count (Node.store n)) 0 (System.nodes sys)
  in
  check Alcotest.bool "some replicas diverted" true (diverted > 0);
  let reader = System.new_client sys ~quota:0 () in
  List.iter
    (fun file_id ->
      match Client.lookup_sync reader ~file_id () with
      | Client.Found _ -> ()
      | Client.Lookup_failed -> Alcotest.failf "file %s unreachable" (Id.short file_id))
    !ids

let quota_enforced_end_to_end () =
  let sys = small_system () in
  let client = System.new_client sys ~quota:5_000 () in
  (match Client.insert_sync client ~name:"fits" ~data:(String.make 1000 'x') ~k:3 () with
  | Client.Inserted _ -> ()
  | Client.Insert_failed _ -> Alcotest.fail "should fit quota");
  match Client.insert_sync client ~name:"too-big" ~data:(String.make 1000 'x') ~k:3 () with
  | Client.Inserted _ -> Alcotest.fail "quota should be exhausted"
  | Client.Insert_failed { reason; _ } -> check Alcotest.string "reason" "quota exceeded" reason

let cache_serves_popular_file () =
  let sys = small_system ~n:30 () in
  let client = System.new_client sys ~quota:1_000_000 () in
  let r = insert_exn client ~name:"hot" ~data:"popular content" ~k:2 in
  (* Hammer the file from many access points; later lookups should hit
     caches (served_from_cache counters grow). *)
  let readers = Array.init 10 (fun _ -> System.new_client sys ~quota:0 ()) in
  Array.iter
    (fun reader ->
      for _ = 1 to 3 do
        match Client.lookup_sync reader ~file_id:r.file_id () with
        | Client.Found _ -> ()
        | Client.Lookup_failed -> Alcotest.fail "lookup failed"
      done)
    readers;
  let cache_hits =
    Array.fold_left (fun acc n -> acc + Node.lookups_served_from_cache n) 0 (System.nodes sys)
  in
  check Alcotest.bool (Printf.sprintf "cache served %d" cache_hits) true (cache_hits > 0)

(* A node that caches a file and is then sent the same file as a
   replica drops the cached copy before re-budgeting its cache: at a
   full cache budget, no other cached file is evicted. *)
let replica_of_cached_file_evicts_nothing () =
  let node_config = { Node.default_config with Node.verify_certificates = false } in
  let sys = System.create ~node_config ~seed:71 ~n:8 ~node_capacity:(fun _ _ -> 100_000) () in
  let card = Client.card (System.new_client sys ~quota:max_int ()) in
  let certs =
    Array.init 100 (fun i ->
        match
          Smartcard.issue_file_certificate card ~name:(Printf.sprintf "c%d" i) ~data:""
            ~declared_size:1000 ~replication:1 ~now:0.0 ()
        with
        | Ok c -> c
        | Error _ -> Alcotest.fail "certificate")
  in
  let node = (System.nodes sys).(0) in
  let cache = Node.cache node in
  (* 100 files of 1000 bytes fill the 100 kB budget; the last one
     offered has the highest weight, so any eviction takes another. *)
  Array.iter (fun cert -> ignore (Cache.offer cache ~cert ~data:"")) certs;
  check Alcotest.int "cache full" (Store.free (Node.store node)) (Cache.used cache);
  let x = certs.(99) and self = PNode.self (Node.pastry node) in
  Net.send
    (PNode.net (Node.pastry node))
    ~src:(Node.addr node) ~dst:(Node.addr node)
    (Past_pastry.Message.Direct
       {
         from = self;
         payload =
           Past_core.Wire.Store_replica
             { cert = x; data = ""; client = { Past_core.Wire.access = self; tag = -1; op = -1 } };
       });
  System.run sys;
  check Alcotest.bool "stored" true (Store.mem (Node.store node) x.Cert.file_id);
  check Alcotest.bool "cached copy dropped" false (Cache.mem cache x.Cert.file_id);
  check Alcotest.int "nothing else evicted" 99 (Cache.entry_count cache)

let utilization_accounting () =
  let sys = small_system ~n:20 () in
  let client = System.new_client sys ~quota:max_int () in
  check (Alcotest.float 1e-9) "starts empty" 0.0 (System.global_utilization sys);
  ignore (insert_exn client ~name:"u" ~data:(String.make 1000 'u') ~k:5);
  check Alcotest.int "used = size * k" 5000 (System.total_used sys);
  check Alcotest.int "capacity" 20_000_000 (System.total_capacity sys)

let dynamic_build_system () =
  let sys =
    System.create ~build:`Dynamic ~seed:72 ~n:25 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 100_000)
      ()
  in
  let client = System.new_client sys ~quota:100_000 () in
  let r = insert_exn client ~name:"dyn" ~data:"dynamic overlay" ~k:3 in
  match Client.lookup_sync client ~file_id:r.file_id () with
  | Client.Found _ -> ()
  | Client.Lookup_failed -> Alcotest.fail "lookup failed on dynamic overlay"

let insecure_crypto_mode_works () =
  let sys =
    System.create ~seed:73 ~n:20 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 100_000)
      ()
  in
  let client = System.new_client sys ~quota:100_000 () in
  let r = insert_exn client ~name:"cheap" ~data:"insecure sigs" ~k:2 in
  match Client.lookup_sync client ~file_id:r.file_id () with
  | Client.Found { cert; _ } -> check Alcotest.bool "cert verifies" true (Cert.verify_file cert)
  | Client.Lookup_failed -> Alcotest.fail "lookup failed"

let pastry_address_is_node_index () =
  let sys =
    System.create ~seed:73 ~n:12 ~crypto_mode:`Insecure ~node_capacity:(fun _ _ -> 100_000) ()
  in
  Array.iteri
    (fun i node ->
      check Alcotest.int "node i has address i" i (Node.addr node);
      check Alcotest.bool "address i maps back to node i" true
        (System.node_of_pastry_addr sys i == node))
    (System.nodes sys);
  List.iter
    (fun addr ->
      match System.node_of_pastry_addr sys addr with
      | _ -> Alcotest.failf "address %d resolved" addr
      | exception Invalid_argument msg ->
        check Alcotest.string "error names the address"
          (Printf.sprintf "System.node_of_pastry_addr: unknown address %d" addr)
          msg)
    [ -1; 12 ];
  System.shutdown sys

let lookup_retries_route_around_droppers () =
  (* Randomized routing + client retries (§2.1 System integrity). *)
  let pastry_config =
    { Past_pastry.Config.default with Past_pastry.Config.randomized_routing = true }
  in
  let sys =
    System.create ~pastry_config ~seed:74 ~n:60 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 1_000_000)
      ()
  in
  let client = System.new_client sys ~quota:1_000_000 () in
  let r = insert_exn client ~name:"contested" ~data:"get me" ~k:3 in
  (* Make a batch of intermediate nodes malicious (not the holders, not
     the client's access node). *)
  let holders =
    Array.to_list (System.nodes sys)
    |> List.filter (fun n -> Store.mem (Node.store n) r.file_id)
    |> List.map Node.addr
  in
  let access_addr = Node.addr (Client.access client) in
  let count = ref 0 in
  Array.iter
    (fun n ->
      if (not (List.mem (Node.addr n) holders)) && Node.addr n <> access_addr && !count < 15
      then begin
        PNode.set_malicious (Node.pastry n) true;
        incr count
      end)
    (System.nodes sys);
  let ok = ref 0 in
  for _ = 1 to 10 do
    match Client.lookup_sync client ~retries:6 ~file_id:r.file_id () with
    | Client.Found _ -> incr ok
    | Client.Lookup_failed -> ()
  done;
  check Alcotest.bool (Printf.sprintf "%d/10 with retries" !ok) true (!ok >= 8)

(* A lookup's timeout fails that lookup only. The client looks the same
   file up twice; the second lookup starts just before the first one's
   timer fires and is still in flight when it does. With [retries:0],
   a timer that matched by fileId and attempt number would fail it. *)
let stale_lookup_timer_ignored () =
  let node_config =
    { Node.default_config with Node.cache_on_lookup_path = false; cache_on_insert_path = false }
  in
  let sys =
    System.create ~node_config ~seed:77 ~n:20 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 1_000_000)
      ()
  in
  let writer = System.new_client sys ~quota:1_000_000 () in
  let r = insert_exn writer ~name:"twice" ~data:"looked up twice" ~k:2 in
  (* An access node without a copy, so every lookup crosses the net. *)
  let access =
    List.find
      (fun n -> not (Store.mem (Node.store n) r.file_id))
      (Array.to_list (System.nodes sys))
  in
  let op_timeout = 5_000.0 in
  let reader = System.new_client sys ~access ~op_timeout ~quota:0 () in
  let net = System.net sys in
  let first_sent = Net.now net in
  (match Client.lookup_sync reader ~file_id:r.file_id () with
  | Client.Found _ -> ()
  | Client.Lookup_failed -> Alcotest.fail "first lookup failed");
  System.run ~until:(first_sent +. op_timeout -. 0.001) sys;
  let second = ref None in
  Client.lookup reader ~file_id:r.file_id (fun res -> second := Some res);
  System.run ~until:(first_sent +. op_timeout) sys;
  (match !second with
  | None -> ()
  | Some Client.Lookup_failed -> Alcotest.fail "the first lookup's timer failed the second"
  | Some (Client.Found _) -> Alcotest.fail "second lookup settled before the first timer fired");
  System.run sys;
  match !second with
  | Some (Client.Found _) -> ()
  | Some Client.Lookup_failed -> Alcotest.fail "the first lookup's timer failed the second"
  | None -> Alcotest.fail "second lookup never settled"

(* qcheck: the smartcard debit/refund protocol never leaks quota across
   multi-attempt inserts. Small op timeouts force attempts to settle
   before some or all receipts arrive: the attempt is retried under a
   fresh fileId (file diversion) while late receipts for the old one
   trickle in, and partially stored attempts are cleaned up with
   non-credited reclaims. Whatever the interleaving, a failed insert
   must leave [used] exactly where it started and a successful one must
   debit exactly size * k. The [starved] case sizes the quota so a
   second insert can fail upfront at certificate issue. *)
let qcheck_insert_quota_never_leaks =
  QCheck.Test.make ~name:"insert debit/refund never leaks quota" ~count:30
    (QCheck.quad (QCheck.int_range 1 2_000) (QCheck.int_range 1 4)
       (QCheck.oneofl [ 1.0; 10.0; 100.0; 400.0; 1_500.0; 20_000.0 ])
       QCheck.bool)
    (fun (size, k, op_timeout, starved) ->
      let sys =
        System.create ~seed:(size + (7 * k)) ~n:12 ~node_capacity:(fun _ _ -> 1_000_000) ()
      in
      let budget = (2 * size * k) - if starved then 1 else 0 in
      let client = System.new_client sys ~op_timeout ~quota:budget () in
      let card = Client.card client in
      let data = String.make size 'q' in
      let insert () = Client.insert_sync client ~name:"prop" ~data ~k () in
      let r1 = insert () in
      (* Let stragglers land: late receipts for timed-out attempts and
         acks for their cleanup reclaims. *)
      System.run sys;
      let expect1 =
        match r1 with Client.Inserted _ -> size * k | Client.Insert_failed _ -> 0
      in
      let ok1 = Smartcard.used card = expect1 in
      (* A second insert starts from a non-zero baseline (and, when
         starved after a success, fails upfront at issue). *)
      let r2 = insert () in
      System.run sys;
      let expect2 =
        match r2 with Client.Inserted _ -> size * k | Client.Insert_failed _ -> 0
      in
      ok1
      && Smartcard.used card = expect1 + expect2
      && Smartcard.used card <= Smartcard.quota card)

(* A node revived after missing inserts regains them only through the
   neighbours' debounced re-replication push: with replication_delay
   set far beyond the test horizon, its store stays empty. *)
let revival_waits_for_repair () =
  let node_config =
    { Node.default_config with Node.verify_certificates = false; replication_delay = 1e12 }
  in
  let sys =
    System.create ~node_config ~seed:76 ~n:12 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 10_000_000)
      ()
  in
  let victim = (System.nodes sys).(0) in
  System.kill_node sys victim;
  let client = System.new_client sys ~quota:max_int () in
  let inserted = ref [] in
  for i = 1 to 20 do
    match Client.insert_sync client ~name:(Printf.sprintf "while-down-%d" i) ~data:"d" ~k:3 () with
    | Client.Inserted { file_id; _ } -> inserted := file_id :: !inserted
    | Client.Insert_failed _ -> ()
  done;
  check Alcotest.bool "some inserts landed while the node was down" true
    (List.length !inserted >= 10);
  check Alcotest.int "victim store empty before revival" 0
    (Store.file_count (Node.store victim));
  System.revive_node sys victim;
  System.run ~until:(Net.now (System.net sys) +. 50_000.0) sys;
  let restored =
    List.length (List.filter (fun id -> Store.mem (Node.store victim) id) !inserted)
  in
  check Alcotest.int "no push yet: store stays empty" 0 restored

(* Insert one file at k = 3 on a maintained system, kill one holder and
   run 40 s, then kill the other holders and run 40 s more. Returns the
   system's monitor set and its violation count after each phase. *)
let replica_loss ?monitors () =
  let node_config = { Node.default_config with Node.verify_certificates = false } in
  let sys =
    System.create ~node_config ?monitors ~seed:5 ~n:30 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 1_000_000)
      ()
  in
  let set = Registry.monitors (System.registry sys) in
  let client = System.new_client sys ~quota:1_000_000 () in
  let r = insert_exn client ~name:"watched" ~data:"payload" ~k:3 in
  System.start_maintenance sys;
  let holders () =
    List.filter
      (fun n -> Net.alive (System.net sys) (Node.addr n) && Store.mem (Node.store n) r.file_id)
      (Array.to_list (System.nodes sys))
  in
  let run_for ms = System.run ~until:(Net.now (System.net sys) +. ms) sys in
  System.kill_node sys (List.hd (holders ()));
  run_for 40_000.0;
  let after_one = Monitor.violations set in
  List.iter (System.kill_node sys) (holders ());
  run_for 40_000.0;
  (set, after_one, Monitor.violations set)

(* The production replica-count monitor fires on real loss: losing one
   of three holders is repaired within the monitor's bound, losing all
   three leaves the file at 0/3 and is exactly one violation, which
   the run's sink also receives. *)
let replica_monitor_fires_on_loss () =
  let sink = Monitor.Sink.create () in
  let set, after_one, after_all = replica_loss ~monitors:sink () in
  check Alcotest.int "one lost holder is repaired in time" 0 after_one;
  check Alcotest.int "losing every holder is one violation" 1 after_all;
  check Alcotest.int "the sink received it" 1 (Monitor.Sink.violations sink);
  match List.filter (fun r -> r.Monitor.m_violations > 0) (Monitor.reports set) with
  | [ rep ] ->
    check Alcotest.string "monitor" "past.replica_count" rep.Monitor.m_name;
    check Alcotest.string "names the loss" "0/3"
      (List.nth (String.split_on_char ' ' rep.Monitor.m_first_detail) 3)
  | reps -> Alcotest.failf "expected one violated monitor, got %d" (List.length reps)

(* Monitoring is per system: two systems run the loss scenario at once
   on two domains, one with a sink and one without. Only the first
   records the violation, and the sink holds exactly that one. *)
let monitors_scoped_to_their_system () =
  let sink = Monitor.Sink.create () in
  let watched = Domain.spawn (fun () -> replica_loss ~monitors:sink ()) in
  let unwatched, _, unwatched_violations = replica_loss () in
  let watched, _, watched_violations = Domain.join watched in
  check Alcotest.bool "set with a sink is active" true (Monitor.active watched);
  check Alcotest.bool "set without one is off" false (Monitor.active unwatched);
  check Alcotest.int "watched system records the loss" 1 watched_violations;
  check Alcotest.int "unwatched system records nothing" 0 unwatched_violations;
  check Alcotest.int "sink holds only the watched violation" 1 (Monitor.Sink.violations sink);
  match Monitor.Sink.summaries sink with
  | [ line ] ->
    check Alcotest.string "names the monitor" "past.replica_count"
      (List.hd (String.split_on_char ' ' line))
  | lines -> Alcotest.failf "expected one summary line, got %d" (List.length lines)

(* --- the repair exchange: offer ids, want what is lacking, send data --- *)

let counter sys name =
  Past_telemetry.Counter.value (Registry.counter (System.registry sys) name)

let repair_system ?loss_rate ?(replication_delay = Node.default_config.Node.replication_delay) () =
  let node_config =
    { Node.default_config with Node.verify_certificates = false; replication_delay }
  in
  System.create ~node_config ~topology:(Past_simnet.Topology.transit_stub ()) ?loss_rate ~seed:11
    ~n:30 ~crypto_mode:`Insecure
    ~node_capacity:(fun _ _ -> 1_000_000)
    ()

let holders sys file_id =
  List.filter
    (fun n -> Net.alive (System.net sys) (Node.addr n) && Store.mem (Node.store n) file_id)
    (Array.to_list (System.nodes sys))

(* The k live nodes closest to the file's routing key: where its
   replicas belong. *)
let closest_live sys file_id ~k =
  let key = Id.prefix_of_file_id file_id in
  Array.to_list (System.nodes sys)
  |> List.filter (fun n -> Net.alive (System.net sys) (Node.addr n))
  |> List.sort (fun a b -> Id.closer ~target:key (Node.id a) (Node.id b))
  |> List.filteri (fun i _ -> i < k)

let addrs nodes = List.sort compare (List.map Node.addr nodes)

(* Run one repair pass on every live node, then let its exchange
   settle. *)
let force_passes sys =
  Array.iter
    (fun n -> if Net.alive (System.net sys) (Node.addr n) then Node.notify_revived n)
    (System.nodes sys);
  System.run ~until:(Net.now (System.net sys) +. 5_000.0) sys

(* In a fully replicated, quiet system a pass offers ids and moves no
   data: every peer already holds what it is offered. *)
let repair_quiet_system_sends_no_data () =
  let sys = repair_system () in
  let client = System.new_client sys ~quota:max_int () in
  let ids =
    List.init 8 (fun i -> (insert_exn client ~name:(Printf.sprintf "q%d" i) ~data:"d" ~k:3).file_id)
  in
  List.iter (fun id -> check Alcotest.int "3 copies" 3 (List.length (holders sys id))) ids;
  let offers0 = counter sys "past.rereplicate.offers" in
  let sent0 = counter sys "past.rereplicate.sent" in
  force_passes sys;
  check Alcotest.bool "the pass offered" true (counter sys "past.rereplicate.offers" > offers0);
  check Alcotest.int "no data moved" sent0 (counter sys "past.rereplicate.sent")

(* Losing one of k holders: only the node that entered the file's
   replica set stores a copy, and data moves at most once per surviving
   holder. Every survivor offers to the entrant; the entrant wants the
   file from each offer that lands before a copy does. The debounce is
   set above the exchange's round trip (three one-way trips, under
   300 ms on transit-stub), so each survivor's leaf-set changes around
   the eviction coalesce into one pass, and a later pass finds the
   copy in place. Offering to the whole leaf set stores copies
   elsewhere; wanting ids already held makes the survivors send each
   other data. *)
let repair_sends_data_only_to_new_member () =
  let sys = repair_system ~replication_delay:1_000.0 () in
  let client = System.new_client sys ~quota:max_int () in
  let r = insert_exn client ~name:"scoped" ~data:"payload" ~k:3 in
  let before = holders sys r.file_id in
  check
    Alcotest.(list int)
    "replicas on the 3 closest"
    (addrs (closest_live sys r.file_id ~k:3))
    (addrs before);
  let added = ref [] in
  Array.iter
    (fun n ->
      Store.set_observer (Node.store n) (function
        | Store.Added cert -> added := (Node.addr n, cert.Cert.file_id) :: !added
        | Store.Removed _ -> ()))
    (System.nodes sys);
  let sent0 = counter sys "past.rereplicate.sent" in
  System.start_maintenance sys;
  System.kill_node sys (List.hd before);
  let cfg = Past_pastry.Config.default in
  let horizon =
    Net.now (System.net sys)
    +. (3.0 *. cfg.Past_pastry.Config.failure_timeout)
    +. (3.0 *. cfg.Past_pastry.Config.keepalive_period)
    +. 1_000.0
  in
  System.run ~until:horizon sys;
  System.stop_maintenance sys;
  System.run ~until:(horizon +. 10_000.0) sys;
  let after = closest_live sys r.file_id ~k:3 in
  let entered = List.filter (fun n -> not (List.memq n before)) after in
  check Alcotest.int "one node entered the replica set" 1 (List.length entered);
  check Alcotest.(list int) "k copies again" (addrs after) (addrs (holders sys r.file_id));
  check
    Alcotest.(list (pair int string))
    "only the entrant stored a copy"
    (List.map (fun n -> (Node.addr n, Id.to_hex r.file_id)) entered)
    (List.map (fun (a, id) -> (a, Id.to_hex id)) !added);
  let data = counter sys "past.rereplicate.sent" - sent0 in
  check Alcotest.bool
    (Printf.sprintf "data at most once per survivor (%d messages)" data)
    true
    (data >= 1 && data <= 2)

(* A want is answered only from what the node still holds: after a
   reclaim, a want for the file (one drawn by an offer made before the
   reclaim) sends nothing. *)
let repair_want_after_reclaim_sends_nothing () =
  let sys = repair_system () in
  let client = System.new_client sys ~quota:max_int () in
  let r = insert_exn client ~name:"reclaimed" ~data:"payload" ~k:3 in
  let offerer, lacking =
    match holders sys r.file_id with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "expected 3 holders"
  in
  let want () =
    PNode.send_direct (Node.pastry lacking)
      ~dst:(PNode.self (Node.pastry offerer))
      (Past_core.Wire.Replica_want { ids = [ r.file_id ]; op = -1 });
    System.run sys
  in
  (* While the file is held, a want pulls it back. *)
  ignore (Store.remove (Node.store lacking) r.file_id);
  let sent0 = counter sys "past.rereplicate.sent" in
  want ();
  check Alcotest.int "held: one data message" 1 (counter sys "past.rereplicate.sent" - sent0);
  check Alcotest.bool "held: copy restored" true (Store.mem (Node.store lacking) r.file_id);
  ignore (Client.reclaim_sync client ~file_id:r.file_id ());
  check Alcotest.int "reclaimed everywhere" 0 (List.length (holders sys r.file_id));
  let sent1 = counter sys "past.rereplicate.sent" in
  want ();
  check Alcotest.int "reclaimed: no data" sent1 (counter sys "past.rereplicate.sent");
  check Alcotest.int "reclaimed: no copy" 0 (List.length (holders sys r.file_id))

(* With lossy links an offer, a want or the data can vanish; the next
   pass offers again and the file regains its k copies. *)
let repair_recovers_under_loss () =
  let sys = repair_system () in
  let client = System.new_client sys ~quota:max_int () in
  let r = insert_exn client ~name:"lossy" ~data:"payload" ~k:3 in
  let lacking = List.hd (holders sys r.file_id) in
  ignore (Store.remove (Node.store lacking) r.file_id);
  Net.set_loss_rate (System.net sys) 0.5;
  let rec passes n =
    if n > 0 && List.length (holders sys r.file_id) < 3 then begin
      force_passes sys;
      passes (n - 1)
    end
  in
  passes 30;
  check Alcotest.(list int) "k copies again" (addrs (closest_live sys r.file_id ~k:3))
    (addrs (holders sys r.file_id))

(* A churn plan needs no wiring: the system's liveness observers run
   Pastry's rejoin and PAST's repair kick on the flip. After a plan
   brings a holder back, it opens a repair pass of its own, and its
   keep-alive chain runs again: with every other node's maintenance
   stopped, each keep-alive sent is its own. *)
let plan_alone_revives_a_past_node () =
  let node_config = { Node.default_config with Node.verify_certificates = false } in
  let sys =
    System.create ~node_config ~topology:(Past_simnet.Topology.transit_stub ())
      ~trace_capacity:65_536 ~seed:11 ~n:30 ~crypto_mode:`Insecure
      ~node_capacity:(fun _ _ -> 1_000_000)
      ()
  in
  let net = System.net sys in
  let client = System.new_client sys ~quota:max_int () in
  let r = insert_exn client ~name:"held" ~data:"payload" ~k:3 in
  let a = List.hd (holders sys r.file_id) in
  System.start_maintenance sys;
  let cfg = Past_pastry.Config.default in
  let window =
    2.0 *. (cfg.Past_pastry.Config.failure_timeout +. cfg.Past_pastry.Config.keepalive_period)
  in
  let crash_at = Net.now net +. 1_000.0 in
  let recover_at = crash_at +. window in
  let a_addr = Node.addr a in
  Churn.apply net (Churn.plan [ (crash_at, Churn.Crash a_addr); (recover_at, Churn.Recover a_addr) ]);
  System.run ~until:(recover_at -. 1.0) sys;
  check Alcotest.bool "down before the recovery" false (Net.alive net a_addr);
  let offers0 = counter sys "past.rereplicate.offers" in
  System.run ~until:(recover_at +. window) sys;
  check Alcotest.bool "back up" true (Net.alive net a_addr);
  check Alcotest.bool "repair offers rose" true (counter sys "past.rereplicate.offers" > offers0);
  let own_passes =
    List.filter
      (fun (sp : Trace.span) ->
        sp.Trace.op = "repair" && sp.Trace.s_node = a_addr && sp.Trace.s_start >= recover_at)
      (Trace.spans (Registry.tracer (System.registry sys)))
  in
  check Alcotest.bool "the revived node ran a repair pass" true (own_passes <> []);
  Array.iter (fun n -> if n != a then PNode.stop_maintenance (Node.pastry n)) (System.nodes sys);
  let sent () = match Net.counters_for_kind net "keepalive" with s, _, _ -> s in
  let before = sent () in
  System.run ~until:(Net.now net +. window) sys;
  check Alcotest.bool "the revived node sends keep-alives" true (sent () > before)

let suite =
  ( "past-system",
    [
      "insert/lookup roundtrip" => insert_lookup_roundtrip;
      "replicas on closest nodes" => replicas_on_closest_nodes;
      "immutability: same name, new id" => immutability_same_name_new_id;
      "lookup missing file" => lookup_missing_file;
      "reclaim frees and credits" => reclaim_frees_and_credits;
      "reclaim by non-owner rejected" => reclaim_by_non_owner_rejected;
      "availability under failures" => availability_under_failures;
      "re-replication after failure" => re_replication_after_failure;
      "diversion keeps files reachable" => diversion_keeps_file_reachable;
      "quota enforced end to end" => quota_enforced_end_to_end;
      "cache serves popular file" => cache_serves_popular_file;
      "replica of a cached file evicts nothing" => replica_of_cached_file_evicts_nothing;
      "utilization accounting" => utilization_accounting;
      "dynamic build" => dynamic_build_system;
      "insecure crypto mode" => insecure_crypto_mode_works;
      "pastry address i is node i" => pastry_address_is_node_index;
      "lookup retries route around droppers" => lookup_retries_route_around_droppers;
      "stale lookup timer ignored" => stale_lookup_timer_ignored;
      "revival waits for repair" => revival_waits_for_repair;
      "replica monitor fires on loss" => replica_monitor_fires_on_loss;
      "monitors report only to their own sink" => monitors_scoped_to_their_system;
      "repair: quiet system moves no data" => repair_quiet_system_sends_no_data;
      "repair: data only to the new member" => repair_sends_data_only_to_new_member;
      "repair: want after reclaim sends nothing" => repair_want_after_reclaim_sends_nothing;
      "repair: lossy links regain k copies" => repair_recovers_under_loss;
      "a plan alone brings a PAST node back" => plan_alone_revives_a_past_node;
      QCheck_alcotest.to_alcotest qcheck_insert_quota_never_leaks;
    ] )
