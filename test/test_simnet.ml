module Topology = Past_simnet.Topology
module Net = Past_simnet.Net
module Rng = Past_stdext.Rng
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

(* Network counters, read from the registry they report into. *)
let counter ?labels net name = Counter.value (Registry.counter (Net.registry net) ?labels name)
let dropped_by net cause = counter net ~labels:[ ("cause", cause) ] "net.dropped"

(* --- Topology --- *)

(* [n] locations drawn into one flat coordinate array. *)
let sample_coords topo rng n =
  let coords = Array.make (n * Topology.stride) 0.0 in
  for i = 0 to n - 1 do
    Topology.sample topo rng coords i
  done;
  coords

let topo_symmetry name topo =
  let coords = sample_coords topo (Rng.create 1) 200 in
  for i = 0 to 99 do
    let a = 2 * i and b = (2 * i) + 1 in
    let d1 = Topology.proximity topo coords a b and d2 = Topology.proximity topo coords b a in
    if abs_float (d1 -. d2) > 1e-9 then Alcotest.failf "%s not symmetric: %f vs %f" name d1 d2
  done

let topo_bounds name topo =
  let coords = sample_coords topo (Rng.create 2) 400 in
  let bound = Topology.max_proximity topo in
  for i = 0 to 199 do
    let d = Topology.proximity topo coords (2 * i) ((2 * i) + 1) in
    if d < 0.0 || d > bound then Alcotest.failf "%s out of bounds: %f (max %f)" name d bound
  done

let plane_self_distance () =
  let topo = Topology.plane () in
  let coords = sample_coords topo (Rng.create 3) 1 in
  check (Alcotest.float 1e-9) "self distance" 0.0 (Topology.proximity topo coords 0 0)

let all_topologies () =
  List.iter
    (fun (name, topo) ->
      topo_symmetry name topo;
      topo_bounds name topo)
    [ ("plane", Topology.plane ()); ("transit_stub", Topology.transit_stub ()) ]

let transit_stub_hierarchy () =
  (* Same stub < same transit < cross transit, up to jitter (< 1). *)
  let topo = Topology.transit_stub () in
  (* Sample until we find pairs in the relevant relations. *)
  let n = 500 in
  let coords = sample_coords topo (Rng.create 4) n in
  let min_cross = ref infinity and max_local = ref 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Topology.proximity topo coords i j in
      if d > 60.0 then min_cross := Stdlib.min !min_cross d
      else if d < 7.0 then max_local := Stdlib.max !max_local d
    done
  done;
  check Alcotest.bool "local cheaper than cross-transit" true (!max_local < !min_cross)

(* Coordinate draw-order pin: the proximities between the first four
   registered nodes of a fresh network, for two seeds on each topology,
   printed exactly ([%h]). A change to the order in which [register]
   draws a location's coordinates moves these. *)
let coordinate_draw_order () =
  let show topology seed =
    let net = Net.create ~rng:(Rng.create seed) ~topology () in
    let addrs = Array.init 4 (fun _ -> Net.register net ~handler:(fun _ _ -> ())) in
    let pairs = ref [] in
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        pairs := Printf.sprintf "%h" (Net.proximity net addrs.(i) addrs.(j)) :: !pairs
      done
    done;
    String.concat " " (List.rev !pairs)
  in
  let got =
    List.concat_map
      (fun (name, topology) ->
        List.map (fun seed -> (Printf.sprintf "%s seed %d" name seed, show (topology ()) seed)) [ 1; 2 ])
      [ ("plane", Topology.plane); ("transit_stub", Topology.transit_stub) ]
  in
  let expected =
    [
      ( "plane seed 1",
        "0x1.6cc293afed499p+7 0x1.78e889548000ap+8 0x1.4384f7dc71fb3p+9 0x1.14a41496488c8p+8 \
         0x1.f729aa1374ffcp+8 0x1.4eda0412aafccp+9" );
      ( "plane seed 2",
        "0x1.531cff1c84ef9p+6 0x1.7d017e2133767p+9 0x1.73fa8f840c4f8p+9 0x1.6689c0f23e01p+9 \
         0x1.5f7a8642c2e0fp+9 0x1.5452ec1bfa1f8p+5" );
      ( "transit_stub seed 1",
        "0x1.7d3f124bc5358p+6 0x1.7e870aa9f6074p+6 0x1.7c9ad74f83548p+6 0x1.7d47f85e30d1cp+6 \
         0x1.7ca43afc41e1p+6 0x1.7dec335a72b2cp+6" );
      ( "transit_stub seed 2",
        "0x1.7e952b5558a24p+6 0x1.7e2e06530f828p+6 0x1.7e9675fc08a04p+6 0x1.7c672502491fcp+6 \
         0x1.7c014aa6affdfp+6 0x1.7c686fa8f91dcp+6" );
    ]
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "proximities" expected got

(* --- Net --- *)

let make_net ?loss_rate () =
  Net.create ?loss_rate ~rng:(Rng.create 7) ~topology:(Topology.plane ()) ()

let delivery_roundtrip () =
  let net = make_net () in
  let got = ref [] in
  let a = Net.register net ~handler:(fun src msg -> got := (src, msg) :: !got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  Net.send net ~src:b ~dst:a "hello";
  Net.run net;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "delivered" [ (b, "hello") ] !got

let time_ordering () =
  let net = make_net () in
  let order = ref [] in
  let _a = Net.register net ~handler:(fun _ _ -> ()) in
  Net.schedule net ~delay:10.0 (fun () -> order := 2 :: !order);
  Net.schedule net ~delay:5.0 (fun () -> order := 1 :: !order);
  Net.schedule net ~delay:20.0 (fun () -> order := 3 :: !order);
  Net.run net;
  check (Alcotest.list Alcotest.int) "fires in time order" [ 1; 2; 3 ] (List.rev !order)

let clock_advances () =
  let net = make_net () in
  Net.schedule net ~delay:42.0 (fun () -> ());
  Net.run net;
  check (Alcotest.float 1e-9) "clock" 42.0 (Net.now net)

let run_until_bounds () =
  let net = make_net () in
  let fired = ref false in
  Net.schedule net ~delay:100.0 (fun () -> fired := true);
  Net.run ~until:50.0 net;
  check Alcotest.bool "not fired" false !fired;
  check (Alcotest.float 1e-9) "clock at horizon" 50.0 (Net.now net);
  Net.run net;
  check Alcotest.bool "fires later" true !fired

let run_until_never_rewinds () =
  let net = make_net () in
  (* A far-future event keeps the queue non-empty, so each [run ~until]
     stops at its limit rather than draining. *)
  Net.schedule net ~delay:1_000.0 (fun () -> ());
  Net.run ~until:100.0 net;
  check (Alcotest.float 1e-9) "clock at first horizon" 100.0 (Net.now net);
  Net.run ~until:40.0 net;
  check (Alcotest.float 1e-9) "earlier horizon leaves the clock" 100.0 (Net.now net);
  let fired_at = ref nan in
  Net.schedule net ~delay:5.0 (fun () -> fired_at := Net.now net);
  Net.run ~until:200.0 net;
  check (Alcotest.float 1e-9) "thunk due at old now + delay" 105.0 !fired_at

let dead_node_drops () =
  let net = make_net () in
  let got = ref 0 in
  let a = Net.register net ~handler:(fun _ _ -> incr got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  Net.set_alive net a false;
  Net.send net ~src:b ~dst:a "x";
  Net.run net;
  check Alcotest.int "nothing delivered" 0 !got;
  check Alcotest.int "counted dropped" 1 (Net.messages_dropped net);
  Net.set_alive net a true;
  Net.send net ~src:b ~dst:a "y";
  Net.run net;
  check Alcotest.int "delivered after revive" 1 !got

let latency_proportional_to_proximity () =
  let net = make_net () in
  let t_deliver = ref 0.0 in
  let a = Net.register net ~handler:(fun _ _ -> t_deliver := Net.now net) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  let d = Net.proximity net a b in
  Net.send net ~src:b ~dst:a "x";
  Net.run net;
  check Alcotest.bool "latency ~ proximity" true (abs_float (!t_deliver -. d) < 0.02)

let loss_rate_statistical () =
  let net = make_net ~loss_rate:0.25 () in
  let got = ref 0 in
  let a = Net.register net ~handler:(fun _ _ -> incr got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  let n = 4000 in
  for _ = 1 to n do
    Net.send net ~src:b ~dst:a "x"
  done;
  Net.run net;
  let rate = 1.0 -. (float_of_int !got /. float_of_int n) in
  check Alcotest.bool "loss near 25%" true (abs_float (rate -. 0.25) < 0.03)

let counters () =
  let net = make_net () in
  let a = Net.register net ~handler:(fun _ _ -> ()) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  Net.send net ~src:a ~dst:b "m";
  Net.run net;
  check Alcotest.int "sent" 1 (counter net "net.sent");
  check Alcotest.int "delivered" 1 (Net.messages_delivered net)

let per_kind_counters () =
  let rng = Rng.create 77 in
  let net =
    Net.create ~describe:(fun msg -> msg) ~rng ~topology:(Topology.plane ()) ()
  in
  let a = Net.register net ~handler:(fun _ _ -> ()) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  Net.send net ~src:a ~dst:b "x";
  Net.send net ~src:a ~dst:b "x";
  Net.send net ~src:a ~dst:b "y";
  Net.run net;
  Net.set_alive net b false;
  Net.send net ~src:a ~dst:b "y";
  Net.run net;
  check Alcotest.(triple int int int) "kind x" (2, 2, 0) (Net.counters_for_kind net "x");
  check Alcotest.(triple int int int) "kind y" (2, 1, 1) (Net.counters_for_kind net "y")

let step_one_event () =
  let net = make_net () in
  let count = ref 0 in
  Net.schedule net ~delay:1.0 (fun () -> incr count);
  Net.schedule net ~delay:2.0 (fun () -> incr count);
  check Alcotest.bool "step true" true (Net.step net);
  check Alcotest.int "one fired" 1 !count;
  ignore (Net.step net);
  check Alcotest.bool "empty" false (Net.step net)

let node_count_tracks () =
  let net = make_net () in
  ignore (Net.register net ~handler:(fun _ _ -> ()));
  ignore (Net.register net ~handler:(fun _ _ -> ()));
  check Alcotest.int "two nodes" 2 (Net.node_count net)

(* --- fault injection --- *)

let owner_gated_thunks () =
  let net = make_net () in
  let a = Net.register net ~handler:(fun _ _ -> ()) in
  let owned = ref 0 and ownerless = ref 0 in
  Net.schedule net ~owner:a ~delay:1.0 (fun () -> incr owned);
  Net.schedule net ~delay:1.0 (fun () -> incr ownerless);
  Net.set_alive net a false;
  Net.run net;
  (* A crashed node's timer must never run; environment timers always do. *)
  check Alcotest.int "crashed owner's thunk skipped" 0 !owned;
  check Alcotest.int "ownerless thunk fired" 1 !ownerless;
  Net.set_alive net a true;
  Net.schedule net ~owner:a ~delay:1.0 (fun () -> incr owned);
  Net.run net;
  check Alcotest.int "fires once owner is back up" 1 !owned

let blackout_loss_rate_accepted () =
  (* loss_rate lives on the closed interval: 1.0 is a valid blackout. *)
  let net = make_net ~loss_rate:1.0 () in
  let got = ref 0 in
  let a = Net.register net ~handler:(fun _ _ -> incr got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  for _ = 1 to 10 do
    Net.send net ~src:b ~dst:a "x"
  done;
  Net.run net;
  check Alcotest.int "nothing delivered" 0 !got;
  check Alcotest.int "all dropped" 10 (Net.messages_dropped net);
  Alcotest.check_raises "loss_rate > 1 rejected"
    (Invalid_argument "Net.create: loss_rate must be in [0,1] (got 1.5)") (fun () ->
      ignore (make_net ~loss_rate:1.5 ()));
  Net.set_loss_rate net 0.0;
  Net.send net ~src:b ~dst:a "x";
  Net.run net;
  check Alcotest.int "delivers after clearing" 1 !got

let src_down_sends_dropped () =
  let net = make_net () in
  let got = ref 0 in
  let a = Net.register net ~handler:(fun _ _ -> incr got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  Net.set_alive net b false;
  (* A down node emits nothing: silent departure mid-cascade. *)
  Net.send net ~src:b ~dst:a "x";
  Net.run net;
  check Alcotest.int "not delivered" 0 !got;
  check Alcotest.int "dropped" 1 (Net.messages_dropped net);
  check Alcotest.int "attributed to src_down" 1 (dropped_by net "src_down");
  Net.set_alive net b true;
  Net.send net ~src:b ~dst:a "x";
  Net.run net;
  check Alcotest.int "delivered after revival" 1 !got

(* The RNG-ordering contract: per-message jitter is drawn from the main
   stream before (and regardless of) the loss coin, and all fault coins
   come from a separate derived stream. So a lossy run delivers each
   surviving message at exactly the time the lossless run delivers it. *)
let deliveries ~loss_rate ~knobs n =
  let net =
    Net.create ~loss_rate ~rng:(Rng.create 123) ~topology:(Topology.plane ()) ()
  in
  let got = ref [] in
  let a = Net.register net ~handler:(fun _ msg -> got := (msg, Net.now net) :: !got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  knobs net;
  for i = 1 to n do
    Net.send net ~src:b ~dst:a i
  done;
  Net.run net;
  List.rev !got

let rng_stream_invariant_under_loss () =
  let n = 300 in
  let base = deliveries ~loss_rate:0.0 ~knobs:(fun _ -> ()) n in
  let lossy = deliveries ~loss_rate:0.3 ~knobs:(fun _ -> ()) n in
  check Alcotest.int "baseline delivers everything" n (List.length base);
  check Alcotest.bool "lossy run lost some" true (List.length lossy < n);
  List.iter
    (fun (msg, time) ->
      match List.assoc_opt msg base with
      | Some t0 ->
        if abs_float (t0 -. time) > 1e-12 then
          Alcotest.failf "message %d delivered at %.9f, baseline %.9f" msg time t0
      | None -> Alcotest.failf "message %d missing from baseline" msg)
    lossy

let rng_stream_invariant_under_duplication () =
  let n = 100 in
  let base = deliveries ~loss_rate:0.0 ~knobs:(fun _ -> ()) n in
  let dup =
    deliveries ~loss_rate:0.0 ~knobs:(fun net -> Net.set_duplication_rate net 0.5) n
  in
  (* Every original delivery keeps its exact baseline time; duplicates
     only add extra deliveries. *)
  List.iter
    (fun (msg, t0) ->
      if not (List.exists (fun (m, t) -> m = msg && abs_float (t -. t0) < 1e-12) dup) then
        Alcotest.failf "message %d lost its baseline delivery time under duplication" msg)
    base;
  check Alcotest.bool "duplicates delivered" true (List.length dup > n)

let partition_blocks_and_heals () =
  let net = make_net () in
  let got_a = ref 0 and got_b = ref 0 in
  let a = Net.register net ~handler:(fun _ _ -> incr got_a) in
  let b = Net.register net ~handler:(fun _ _ -> incr got_b) in
  Net.partition net [ [ a ] ];
  check Alcotest.bool "not reachable" false (Net.reachable net ~src:a ~dst:b);
  Net.send net ~src:a ~dst:b "x";
  Net.send net ~src:b ~dst:a "y";
  Net.run net;
  check Alcotest.int "a->b cut" 0 !got_b;
  check Alcotest.int "b->a cut" 0 !got_a;
  check Alcotest.int "attributed to partition" 2 (dropped_by net "partition");
  Net.heal_partition net;
  check Alcotest.bool "reachable after heal" true (Net.reachable net ~src:a ~dst:b);
  Net.send net ~src:a ~dst:b "x";
  Net.run net;
  check Alcotest.int "delivered after heal" 1 !got_b

let partition_cuts_in_flight () =
  let net = make_net () in
  let got = ref 0 in
  let a = Net.register net ~handler:(fun _ _ -> incr got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  Net.send net ~src:b ~dst:a "x";
  (* The cut lands at time 0, before the message's delivery time: the
     in-flight message must not cross it. *)
  Net.schedule net ~delay:0.0 (fun () -> Net.partition net [ [ a ] ]);
  Net.run net;
  check Alcotest.int "in-flight message cut" 0 !got;
  check Alcotest.int "dropped" 1 (Net.messages_dropped net)

let per_link_overrides_are_directional () =
  let net = make_net () in
  let t_ab = ref nan and t_ba = ref nan in
  let got_a = ref 0 and got_b = ref 0 in
  let a =
    Net.register net ~handler:(fun _ _ ->
        incr got_a;
        t_ba := Net.now net)
  in
  let b =
    Net.register net ~handler:(fun _ _ ->
        incr got_b;
        t_ab := Net.now net)
  in
  let base = Net.proximity net a b in
  (* Slow one direction only: asymmetric link. *)
  Net.set_link net ~src:a ~dst:b ~extra_delay:500.0 ();
  Net.send net ~src:a ~dst:b "x";
  Net.send net ~src:b ~dst:a "y";
  Net.run net;
  check Alcotest.bool "a->b slowed" true (!t_ab >= 500.0);
  check Alcotest.bool "b->a unaffected" true (!t_ba < base +. 1.0);
  (* Link-local blackout: only the configured direction goes dark. *)
  Net.set_link net ~src:a ~dst:b ~loss:1.0 ();
  Net.send net ~src:a ~dst:b "x";
  Net.send net ~src:b ~dst:a "y";
  Net.run net;
  check Alcotest.int "a->b blacked out" 1 !got_b;
  check Alcotest.int "b->a delivered" 2 !got_a;
  Net.clear_link net ~src:a ~dst:b;
  Net.send net ~src:a ~dst:b "x";
  Net.run net;
  check Alcotest.int "cleared link delivers again" 2 !got_b

let duplication_counted () =
  let net = make_net () in
  let got = ref 0 in
  let a = Net.register net ~handler:(fun _ _ -> incr got) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  Net.set_duplication_rate net 1.0;
  for _ = 1 to 5 do
    Net.send net ~src:b ~dst:a "x"
  done;
  Net.run net;
  check Alcotest.int "each message delivered twice" 10 !got;
  check Alcotest.int "duplications counted" 5 (counter net "net.duplicated")

let reorder_overtakes () =
  let net =
    Net.create ~rng:(Rng.create 9) ~topology:(Topology.plane ()) ()
  in
  let order = ref [] in
  let a = Net.register net ~handler:(fun _ msg -> order := msg :: !order) in
  let b = Net.register net ~handler:(fun _ _ -> ()) in
  Net.set_reorder net ~rate:0.5 ~max_extra_delay:1_000.0;
  for i = 1 to 50 do
    Net.send net ~src:b ~dst:a i
  done;
  Net.run net;
  let final = List.rev !order in
  check Alcotest.int "all delivered" 50 (List.length final);
  check Alcotest.bool "some overtaking happened" true
    (final <> List.sort_uniq compare final)

let suite =
  ( "simnet",
    [
      "topology symmetry/bounds" => all_topologies;
      "plane self distance" => plane_self_distance;
      "transit-stub hierarchy" => transit_stub_hierarchy;
      "coordinate draw order" => coordinate_draw_order;
      "delivery roundtrip" => delivery_roundtrip;
      "time ordering" => time_ordering;
      "clock advances" => clock_advances;
      "run ~until bounds" => run_until_bounds;
      "run ~until never rewinds the clock" => run_until_never_rewinds;
      "dead node drops" => dead_node_drops;
      "latency proportional" => latency_proportional_to_proximity;
      "loss rate statistical" => loss_rate_statistical;
      "counters" => counters;
      "per-kind counters" => per_kind_counters;
      "step" => step_one_event;
      "node count" => node_count_tracks;
      "owner-gated thunks" => owner_gated_thunks;
      "loss_rate 1.0 accepted" => blackout_loss_rate_accepted;
      "src-down sends dropped" => src_down_sends_dropped;
      "rng stream invariant under loss" => rng_stream_invariant_under_loss;
      "rng stream invariant under duplication" => rng_stream_invariant_under_duplication;
      "partition blocks and heals" => partition_blocks_and_heals;
      "partition cuts in-flight" => partition_cuts_in_flight;
      "per-link overrides directional" => per_link_overrides_are_directional;
      "duplication counted" => duplication_counted;
      "reorder overtakes" => reorder_overtakes;
    ] )
