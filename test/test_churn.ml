(* The declarative churn engine (Past_simnet.Churn) and its wiring
   into the overlay/storage layers. *)

module Topology = Past_simnet.Topology
module Net = Past_simnet.Net
module Churn = Past_simnet.Churn
module Rng = Past_stdext.Rng
module Overlay = Past_pastry.Overlay
module PNode = Past_pastry.Node
module Config = Past_pastry.Config
module Leaf_set = Past_pastry.Leaf_set
module Peer = Past_pastry.Peer
module Exp_churn = Past_experiments.Exp_churn
module Harness = Past_experiments.Harness

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let make_net () = Net.create ~rng:(Rng.create 11) ~topology:(Topology.plane ()) ()

let plan_applies_in_time_order () =
  let net = make_net () in
  let a = Net.register net ~handler:(fun _ _ -> ()) in
  let crashed_at = ref nan and recovered_at = ref nan in
  let hooks =
    {
      Churn.on_crash = (fun _ -> crashed_at := Net.now net);
      on_recover = (fun _ -> recovered_at := Net.now net);
    }
  in
  (* Out-of-order input: [plan] sorts it. *)
  let plan = Churn.plan [ (20.0, Churn.Recover a); (10.0, Churn.Crash a) ] in
  Churn.apply ~hooks net plan;
  Net.run ~until:15.0 net;
  check Alcotest.bool "down mid-plan" false (Net.alive net a);
  Net.run net;
  check Alcotest.bool "back up after plan" true (Net.alive net a);
  check (Alcotest.float 1e-9) "crash fired at 10" 10.0 !crashed_at;
  check (Alcotest.float 1e-9) "recover fired at 20" 20.0 !recovered_at;
  check Alcotest.int "crashes counted" 1 (Churn.crashes net);
  check Alcotest.int "recoveries counted" 1 (Churn.recoveries net)

let plan_rejects_negative_times () =
  let a = 0 in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Churn.plan: negative time -1.5") (fun () ->
      ignore (Churn.plan [ (2.0, Churn.Recover a); (-1.5, Churn.Crash a) ]))

(* Each rejected [sustained] argument is named with its value. *)
let sustained_errors_name_their_values () =
  let sustained ?(rate = 0.05) ?(mean_downtime = 30.0) ?(horizon = 100.0) () =
    ignore
      (Churn.sustained ~rng:(Rng.create 3) ~addrs:[| 0; 1 |] ~rate ~mean_downtime ~horizon
         ~min_live:1)
  in
  List.iter
    (fun (msg, f) -> Alcotest.check_raises msg (Invalid_argument ("Churn.sustained: " ^ msg)) f)
    [
      ("rate must be positive (got 0)", fun () -> sustained ~rate:0.0 ());
      ("mean_downtime must be positive (got -2)", fun () -> sustained ~mean_downtime:(-2.0) ());
      ("horizon must be positive (got -0.5)", fun () -> sustained ~horizon:(-0.5) ());
    ]

let crash_and_recover_are_idempotent () =
  let net = make_net () in
  let a = Net.register net ~handler:(fun _ _ -> ()) in
  let plan =
    Churn.plan
      [ (1.0, Churn.Crash a); (2.0, Churn.Crash a); (3.0, Churn.Recover a); (4.0, Churn.Recover a) ]
  in
  Churn.apply net plan;
  Net.run net;
  check Alcotest.int "one crash" 1 (Churn.crashes net);
  check Alcotest.int "one recovery" 1 (Churn.recoveries net);
  check Alcotest.bool "alive" true (Net.alive net a)

let plan_drives_faults () =
  let net = make_net () in
  let got = ref 0 in
  let a = Net.register net ~handler:(fun _ _ -> incr got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  let execed = ref false in
  let plan =
    Churn.plan
      [
        (1.0, Churn.Partition [ [ a ] ]);
        (2.0, Churn.Heal);
        (3.0, Churn.Set_loss 1.0);
        (4.0, Churn.Set_loss 0.0);
        (5.0, Churn.Exec (fun () -> execed := true));
      ]
  in
  Churn.apply net plan;
  Net.run ~until:1.5 net;
  Net.send net ~src:b ~dst:a "cut";
  Net.run ~until:2.5 net;
  check Alcotest.int "cut by partition" 0 !got;
  Net.run ~until:3.5 net;
  Net.send net ~src:b ~dst:a "lost";
  Net.run ~until:4.5 net;
  check Alcotest.int "lost to blackout" 0 !got;
  Net.run net;
  check Alcotest.bool "exec escape hatch ran" true !execed;
  Net.send net ~src:b ~dst:a "through";
  Net.run net;
  check Alcotest.int "delivers once faults clear" 1 !got

(* The generator's plan must be self-consistent: never crash a down
   node, never recover an up one, never dip below min_live, and leave
   everyone up at the end. *)
let sustained_plan_is_consistent () =
  let n = 12 and min_live = 5 in
  let addrs = Array.init n (fun i -> i) in
  let plan =
    Churn.sustained ~rng:(Rng.create 3) ~addrs ~rate:0.05 ~mean_downtime:30.0 ~horizon:2_000.0
      ~min_live
  in
  check Alcotest.bool "plan has events" true (plan <> []);
  let down = Hashtbl.create 8 in
  let last = ref 0.0 in
  List.iter
    (fun { Churn.at; action } ->
      check Alcotest.bool "sorted" true (at >= !last);
      last := at;
      match action with
      | Churn.Crash a ->
        check Alcotest.bool "crash hits a live node" false (Hashtbl.mem down a);
        Hashtbl.add down a ();
        check Alcotest.bool "respects min_live" true (n - Hashtbl.length down >= min_live)
      | Churn.Recover a ->
        check Alcotest.bool "recover hits a down node" true (Hashtbl.mem down a);
        Hashtbl.remove down a
      | _ -> Alcotest.fail "sustained plans only crash and recover")
    plan;
  check Alcotest.int "everyone recovers eventually" 0 (Hashtbl.length down)

(* Owner-gated maintenance: a revived node's keep-alive chain must
   re-arm. With two nodes, only B can burn keep-alives on a dead A — if
   B's timers died during its own downtime, the drop counter stays
   flat. *)
let revived_node_resumes_maintenance () =
  let config = Config.default in
  let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed:42 () in
  Overlay.build_dynamic overlay ~n:2;
  Overlay.install_apps overlay (fun _ -> Harness.null_app);
  let net = Overlay.net overlay in
  let nodes = Overlay.nodes overlay in
  let a = nodes.(0) and b = nodes.(1) in
  let window = (2.0 *. config.Config.failure_timeout) +. (2.0 *. config.Config.keepalive_period) in
  Overlay.start_maintenance overlay;
  Overlay.run ~until:(Net.now net +. window) overlay;
  (* Take B down through a detection cycle, then bring it back. *)
  Overlay.kill overlay b;
  Overlay.run ~until:(Net.now net +. window) overlay;
  Overlay.revive overlay b;
  Overlay.run ~until:(Net.now net +. window) overlay;
  (* Now kill A: only B remains to send keep-alives at the dead A. *)
  Overlay.kill overlay a;
  let dropped () = match Net.counters_for_kind net "keepalive" with _, _, d -> d in
  let before = dropped () in
  Overlay.run ~until:(Net.now net +. window) overlay;
  check Alcotest.bool "revived node's keep-alive timers re-armed" true (dropped () > before);
  Overlay.stop_maintenance overlay;
  Overlay.run overlay

(* A crashed node's tick never runs: while B is down, no keep-alives
   from it reach (or get dropped at) anyone. *)
let crashed_node_sends_nothing () =
  let config = Config.default in
  let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed:43 () in
  Overlay.build_dynamic overlay ~n:2;
  Overlay.install_apps overlay (fun _ -> Harness.null_app);
  let net = Overlay.net overlay in
  let nodes = Overlay.nodes overlay in
  let window = (2.0 *. config.Config.failure_timeout) +. (2.0 *. config.Config.keepalive_period) in
  Overlay.start_maintenance overlay;
  Overlay.run ~until:(Net.now net +. window) overlay;
  Overlay.kill overlay nodes.(0);
  Overlay.kill overlay nodes.(1);
  (* Both down: any keep-alive sent now would be counted (as a drop). *)
  let sent () = match Net.counters_for_kind net "keepalive" with s, _, _ -> s in
  let before = sent () in
  Overlay.run ~until:(Net.now net +. (3.0 *. window)) overlay;
  check Alcotest.int "no keep-alives from crashed nodes" before (sent ());
  Overlay.stop_maintenance overlay

(* The keep-alive detection bound, pinned: every live leaf-set member
   of a killed node evicts it within (T + P, T + 2P] of the last message
   it had from it, T the failure timeout and P the keep-alive period.
   The network is stepped one event at a time, so each member's last
   hearing of the victim (messages in flight at the kill still land) and
   its eviction are both seen at the event that makes them. Eight nodes
   with l = 32: every node holds every other, no routed traffic, so
   only keep-alive probing can evict. *)
let eviction_lands_in_detection_bound () =
  let config = Config.default in
  let p = config.Config.keepalive_period and timeout = config.Config.failure_timeout in
  let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed:44 () in
  Overlay.build_dynamic overlay ~n:8;
  Overlay.install_apps overlay (fun _ -> Harness.null_app);
  let net = Overlay.net overlay in
  let nodes = Overlay.nodes overlay in
  Overlay.start_maintenance overlay;
  Overlay.run ~until:(Net.now net +. (10.0 *. p) +. 137.0) overlay;
  let victim = nodes.(3) in
  let v = PNode.addr victim in
  Overlay.kill overlay victim;
  let watchers = List.filter (fun n -> n != victim) (Array.to_list nodes) in
  let leaf n = PNode.leaf_set n in
  List.iter
    (fun n -> check Alcotest.bool "victim is a member" true (Leaf_set.mem_addr (leaf n) v))
    watchers;
  let last = Array.make (Array.length nodes) nan in
  let evicted = Array.make (Array.length nodes) nan in
  let horizon = Net.now net +. timeout +. (4.0 *. p) in
  while
    List.exists (fun n -> Float.is_nan evicted.(PNode.addr n)) watchers
    && Net.now net < horizon && Net.step net
  do
    List.iter
      (fun n ->
        let a = PNode.addr n in
        if Float.is_nan evicted.(a) then
          match Leaf_set.last_heard (leaf n) v with
          | Some h -> last.(a) <- h
          | None -> evicted.(a) <- Net.now net)
      watchers
  done;
  List.iter
    (fun n ->
      let a = PNode.addr n in
      let after = evicted.(a) -. last.(a) in
      if not (after > timeout +. p && after <= timeout +. (2.0 *. p)) then
        Alcotest.failf "node@%d evicted the victim %.1f after its last message (bound (%g, %g])" a
          after (timeout +. p)
          (timeout +. (2.0 *. p)))
    watchers;
  Overlay.stop_maintenance overlay

(* A recovering node holds its pre-crash leaf set under probe: a member
   that died while it was down is not passed on in its leaf-set replies,
   and it is evicted at the first tick past one failure timeout, within
   T + P of the recovery. Eight nodes with l = 32 and no routed traffic,
   as above. *)
let recovered_node_vouches_for_no_dead_member () =
  let config = Config.default in
  let p = config.Config.keepalive_period and timeout = config.Config.failure_timeout in
  let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed:46 () in
  Overlay.build_dynamic overlay ~n:8;
  Overlay.install_apps overlay (fun _ -> Harness.null_app);
  let net = Overlay.net overlay in
  let nodes = Overlay.nodes overlay in
  Overlay.start_maintenance overlay;
  Overlay.run ~until:(Net.now net +. (10.0 *. p) +. 137.0) overlay;
  let sleeper = nodes.(2) and victim = nodes.(5) in
  let v = PNode.addr victim in
  let leaf = PNode.leaf_set sleeper in
  Overlay.kill overlay sleeper;
  Overlay.run ~until:(Net.now net +. p) overlay;
  Overlay.kill overlay victim;
  Overlay.run ~until:(Net.now net +. (3.0 *. (timeout +. p))) overlay;
  check Alcotest.bool "victim still in the sleeper's leaf set" true (Leaf_set.mem_addr leaf v);
  Overlay.revive overlay sleeper;
  let recovered = Net.now net in
  let smaller, larger = Leaf_set.vouched leaf in
  if List.exists (fun q -> q.Peer.addr = v) (smaller @ larger) then
    Alcotest.fail "a recovered node vouches for a member that died while it was down";
  let horizon = recovered +. timeout +. (2.0 *. p) in
  while Leaf_set.mem_addr leaf v && Net.now net <= horizon && Net.step net do
    ()
  done;
  let after = Net.now net -. recovered in
  if Leaf_set.mem_addr leaf v || after > timeout +. p then
    Alcotest.failf "dead member held %.1f after recovery (bound %g)" after (timeout +. p);
  Overlay.stop_maintenance overlay

(* With no failure memory, nothing re-admits an evicted dead node: once
   every live node of a maintained overlay has evicted a killed node, no
   leaf set takes it back over the next 2(P + T). *)
let evicted_node_stays_out () =
  let config = Config.default in
  let p = config.Config.keepalive_period and timeout = config.Config.failure_timeout in
  let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed:47 () in
  Overlay.build_dynamic overlay ~n:8;
  Overlay.install_apps overlay (fun _ -> Harness.null_app);
  let net = Overlay.net overlay in
  let nodes = Overlay.nodes overlay in
  Overlay.start_maintenance overlay;
  Overlay.run ~until:(Net.now net +. (10.0 *. p) +. 137.0) overlay;
  let victim = nodes.(6) in
  let v = PNode.addr victim in
  Overlay.kill overlay victim;
  let watchers = List.filter (fun n -> n != victim) (Array.to_list nodes) in
  let holders () = List.filter (fun n -> Leaf_set.mem_addr (PNode.leaf_set n) v) watchers in
  let horizon = Net.now net +. timeout +. (4.0 *. p) in
  while holders () <> [] && Net.now net < horizon && Net.step net do
    ()
  done;
  check Alcotest.int "every live node evicted the victim" 0 (List.length (holders ()));
  let until = Net.now net +. (2.0 *. (p +. timeout)) in
  while Net.now net < until && Net.step net do
    match holders () with
    | [] -> ()
    | n :: _ -> Alcotest.failf "node@%d re-admitted the evicted node" (PNode.addr n)
  done;
  Overlay.stop_maintenance overlay

(* Suppression: between two quiet nodes a keep-alive and its ack count
   as hearing from each other, so the pair sends at most one probe per
   period where probing every member every tick would send two. *)
let quiet_pair_probes_once_per_period () =
  let config = Config.default in
  let p = config.Config.keepalive_period in
  let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed:45 () in
  Overlay.build_dynamic overlay ~n:2;
  Overlay.install_apps overlay (fun _ -> Harness.null_app);
  let net = Overlay.net overlay in
  Overlay.start_maintenance overlay;
  Overlay.run ~until:(Net.now net +. (4.0 *. p)) overlay;
  let sent () = match Net.counters_for_kind net "keepalive" with s, _, _ -> s in
  let before = sent () in
  let periods = 200 in
  Overlay.run ~until:(Net.now net +. (float_of_int periods *. p)) overlay;
  let probes = sent () - before in
  if probes > periods + 1 then
    Alcotest.failf "%d probes in %d periods: more than one per pair per period" probes periods;
  (* Probing goes on: each side stays within a probe of its deadline. *)
  check Alcotest.bool "probing continues" true (probes >= periods / 2);
  Array.iter
    (fun n -> check Alcotest.int "both stay members" 1 (Leaf_set.size (PNode.leaf_set n)))
    (Overlay.nodes overlay);
  Overlay.stop_maintenance overlay

(* End-to-end smoke: a short sustained-churn run must lose nothing and
   return to full strength. *)
let exp_churn_smoke () =
  let p =
    {
      Exp_churn.default_params with
      Exp_churn.n = 20;
      files = 8;
      duration = 20_000.0;
      rate = 0.002;
      mean_downtime = 3_000.0;
      probe_period = 1_000.0;
      scan_period = 500.0;
      seed = 5;
    }
  in
  let r = Exp_churn.run p in
  check Alcotest.bool "churn actually happened" true (r.Exp_churn.crashes > 0);
  check Alcotest.int "every crash recovered" r.Exp_churn.crashes r.Exp_churn.recoveries;
  check Alcotest.int "no live file lost" 0 r.Exp_churn.lost_files;
  check Alcotest.int "network back to full strength" 20 r.Exp_churn.final_live_nodes

let suite =
  ( "churn",
    [
      "plan applies in time order" => plan_applies_in_time_order;
      "plan rejects negative times" => plan_rejects_negative_times;
      "sustained errors name their values" => sustained_errors_name_their_values;
      "crash/recover idempotent" => crash_and_recover_are_idempotent;
      "plan drives partitions, loss, exec" => plan_drives_faults;
      "sustained plan is consistent" => sustained_plan_is_consistent;
      "revived node resumes maintenance" => revived_node_resumes_maintenance;
      "crashed node sends nothing" => crashed_node_sends_nothing;
      "eviction lands in the detection bound" => eviction_lands_in_detection_bound;
      "recovered node vouches for no dead member" => recovered_node_vouches_for_no_dead_member;
      "evicted node stays out" => evicted_node_stays_out;
      "quiet pair probes once per period" => quiet_pair_probes_once_per_period;
      "exp_churn smoke" => exp_churn_smoke;
    ] )
