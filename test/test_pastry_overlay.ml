(* Integration tests for the Pastry overlay: construction invariants,
   routing correctness, joins, failures and randomized routing. *)

module Id = Past_id.Id
module Rng = Past_stdext.Rng
module Config = Past_pastry.Config
module Peer = Past_pastry.Peer
module Node = Past_pastry.Node
module Overlay = Past_pastry.Overlay
module Leaf_set = Past_pastry.Leaf_set
module Routing_table = Past_pastry.Routing_table
module Net = Past_simnet.Net

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let null_app = Past_experiments.Harness.null_app

(* Route [lookups] random keys and assert every one is delivered at the
   numerically closest live node. Returns average hops. *)
let assert_routing_exact (overlay : unit Overlay.t) ~lookups =
  let delivered = ref 0 and wrong = ref 0 and hops_total = ref 0 in
  Overlay.install_apps overlay (fun node ->
      {
        null_app with
        Node.deliver =
          (fun ~key _ info ->
            incr delivered;
            hops_total := !hops_total + info.Node.hops;
            if Node.addr (Overlay.closest_live_node overlay key) <> Node.addr node then incr wrong);
      });
  let rng = Overlay.rng overlay in
  for _ = 1 to lookups do
    Node.route (Overlay.random_live_node overlay) ~key:(Id.random rng ~width:Id.node_bits) ()
  done;
  Overlay.run overlay;
  check Alcotest.int "all delivered" lookups !delivered;
  check Alcotest.int "none misrouted" 0 !wrong;
  float_of_int !hops_total /. float_of_int lookups

(* Exact leaf sets: every node's leaf set must hold its l/2 ring
   neighbours on each side (or everyone, in small rings). *)
let assert_leaf_invariant (overlay : unit Overlay.t) =
  let nodes = Overlay.nodes overlay in
  let sorted = Array.copy nodes in
  Array.sort (fun a b -> Id.compare (Node.id a) (Node.id b)) sorted;
  let n = Array.length sorted in
  let half = (Overlay.config overlay).Config.leaf_set_size / 2 in
  Array.iteri
    (fun i node ->
      let ls = Node.leaf_set node in
      for d = 1 to Stdlib.min half ((n - 1) / 2) do
        let nxt = sorted.((i + d) mod n) and prv = sorted.(((i - d) mod n + n) mod n) in
        if not (Leaf_set.mem_addr ls (Node.addr nxt)) then
          Alcotest.failf "node %s misses +%d neighbour" (Id.short (Node.id node)) d;
        if not (Leaf_set.mem_addr ls (Node.addr prv)) then
          Alcotest.failf "node %s misses -%d neighbour" (Id.short (Node.id node)) d
      done)
    sorted

(* Routing table prefix invariant: entry at (row, col) shares exactly
   [row] digits with the owner and its digit [row] is [col]. *)
let assert_rt_invariant (overlay : unit Overlay.t) =
  let b = (Overlay.config overlay).Config.b in
  Array.iter
    (fun node ->
      let own = Node.id node in
      let rt = Node.routing_table node in
      for row = 0 to Config.rows (Overlay.config overlay) - 1 do
        for col = 0 to Config.cols (Overlay.config overlay) - 1 do
          match Routing_table.lookup rt ~row ~col with
          | None -> ()
          | Some p ->
            if Id.shared_prefix_digits ~b own p.Peer.id <> row then
              Alcotest.failf "bad prefix at row %d" row;
            if Id.digit ~b p.Peer.id row <> col then Alcotest.failf "bad digit at col %d" col
        done
      done)
    (Overlay.nodes overlay)

let static_build_invariants () =
  let overlay : unit Overlay.t = Overlay.create ~seed:1 () in
  Overlay.build_static overlay ~n:300;
  assert_leaf_invariant overlay;
  assert_rt_invariant overlay

let static_routing_exact () =
  let overlay : unit Overlay.t = Overlay.create ~seed:2 () in
  Overlay.build_static overlay ~n:400;
  ignore (assert_routing_exact overlay ~lookups:300)

let dynamic_build_invariants () =
  let overlay : unit Overlay.t = Overlay.create ~seed:3 () in
  Overlay.build_dynamic overlay ~n:120;
  assert_leaf_invariant overlay;
  assert_rt_invariant overlay;
  Array.iter
    (fun node -> check Alcotest.bool "joined" true (Node.joined node))
    (Overlay.nodes overlay)

let dynamic_routing_exact () =
  let overlay : unit Overlay.t = Overlay.create ~seed:4 () in
  Overlay.build_dynamic overlay ~n:150;
  ignore (assert_routing_exact overlay ~lookups:300)

let hops_logarithmic () =
  let overlay : unit Overlay.t = Overlay.create ~seed:5 () in
  Overlay.build_static overlay ~n:1000;
  let avg = assert_routing_exact overlay ~lookups:500 in
  let bound = Float.ceil (log 1000.0 /. log 16.0) in
  check Alcotest.bool
    (Printf.sprintf "avg %.2f < bound %.0f" avg bound)
    true (avg < bound)

let route_to_own_key_is_local () =
  let overlay : unit Overlay.t = Overlay.create ~seed:6 () in
  Overlay.build_static overlay ~n:50;
  let self_delivered = ref false in
  let node = Overlay.random_node overlay in
  Node.set_app node
    { null_app with Node.deliver = (fun ~key:_ _ info -> self_delivered := info.Node.hops = 0) };
  Node.route node ~key:(Node.id node) ();
  Overlay.run overlay;
  check Alcotest.bool "zero hops to self" true !self_delivered

let direct_messages () =
  let overlay : unit Overlay.t = Overlay.create ~seed:7 () in
  Overlay.build_static overlay ~n:20;
  let got = ref None in
  let a = (Overlay.nodes overlay).(0) and b = (Overlay.nodes overlay).(1) in
  Node.set_app b { null_app with Node.on_direct = (fun ~from _ -> got := Some from.Peer.addr) };
  Node.send_direct a ~dst:(Node.self b) ();
  Overlay.run overlay;
  check (Alcotest.option Alcotest.int) "direct delivered with sender" (Some (Node.addr a)) !got

let state_size_bounded () =
  let overlay : unit Overlay.t = Overlay.create ~seed:8 () in
  Overlay.build_static overlay ~n:500;
  let config = Overlay.config overlay in
  let bound =
    ((Config.cols config - 1) * Config.rows config)
    + (2 * config.Config.leaf_set_size)
    + config.Config.neighborhood_size
  in
  Array.iter
    (fun node ->
      if Node.state_size node > bound then
        Alcotest.failf "state %d exceeds bound %d" (Node.state_size node) bound)
    (Overlay.nodes overlay)

let failure_detection_and_repair () =
  let overlay : unit Overlay.t = Overlay.create ~seed:9 () in
  Overlay.build_dynamic overlay ~n:60;
  Overlay.install_apps overlay (fun _ -> null_app);
  let victim = Overlay.random_live_node overlay in
  let config = Overlay.config overlay in
  Overlay.start_maintenance overlay;
  Overlay.kill overlay victim;
  (* Two full detection windows. *)
  let horizon =
    Net.now (Overlay.net overlay)
    +. (3.0 *. config.Config.failure_timeout)
    +. (3.0 *. config.Config.keepalive_period)
  in
  Overlay.run ~until:horizon overlay;
  Overlay.stop_maintenance overlay;
  Overlay.run ~until:(horizon +. 5000.0) overlay;
  (* No live node's leaf set still contains the victim. *)
  Array.iter
    (fun node ->
      if Node.addr node <> Node.addr victim then begin
        if Leaf_set.mem_addr (Node.leaf_set node) (Node.addr victim) then
          Alcotest.failf "%s still has dead node in leaf set" (Id.short (Node.id node))
      end)
    (Overlay.nodes overlay);
  (* And routing is still exact (victim excluded). *)
  ignore (assert_routing_exact overlay ~lookups:100)

let routing_survives_failures_without_maintenance () =
  (* Even before keep-alives notice, use-time filtering (the per-hop
     timeout model) keeps routing exact. *)
  let overlay : unit Overlay.t = Overlay.create ~seed:10 () in
  Overlay.build_static overlay ~n:200;
  let rng = Overlay.rng overlay in
  for _ = 1 to 20 do
    Overlay.kill overlay (Overlay.random_live_node overlay)
  done;
  ignore rng;
  ignore (assert_routing_exact overlay ~lookups:200)

let node_revival () =
  let overlay : unit Overlay.t = Overlay.create ~seed:11 () in
  Overlay.build_dynamic overlay ~n:40;
  Overlay.install_apps overlay (fun _ -> null_app);
  let victim = Overlay.random_live_node overlay in
  Overlay.kill overlay victim;
  ignore (assert_routing_exact overlay ~lookups:50);
  Overlay.revive overlay victim;
  Overlay.run overlay;
  ignore (assert_routing_exact overlay ~lookups:50)

let randomized_routing_correct () =
  let config = { Config.default with Config.randomized_routing = true } in
  let overlay : unit Overlay.t = Overlay.create ~config ~seed:12 () in
  Overlay.build_static overlay ~n:300;
  (* Randomized routes still deliver to the exact closest node (the
     invariant forbids loops and guarantees progress). *)
  ignore (assert_routing_exact overlay ~lookups:300)

let malicious_node_drops () =
  let overlay : unit Overlay.t = Overlay.create ~seed:13 () in
  Overlay.build_static overlay ~n:100;
  Overlay.install_apps overlay (fun _ -> null_app);
  let bad = Overlay.random_node overlay in
  Node.set_malicious bad true;
  check Alcotest.bool "flag" true (Node.malicious bad);
  (* A message whose key is owned by the malicious node disappears. *)
  let delivered = ref 0 in
  Overlay.install_apps overlay (fun _ ->
      { null_app with Node.deliver = (fun ~key:_ _ _ -> incr delivered) });
  let src = Overlay.random_node overlay in
  if Node.addr src <> Node.addr bad then begin
    Node.route src ~key:(Node.id bad) ();
    Overlay.run overlay;
    check Alcotest.int "dropped at malicious target" 0 !delivered
  end

let closest_live_node_ground_truth () =
  let overlay : unit Overlay.t = Overlay.create ~seed:14 () in
  Overlay.build_static overlay ~n:100;
  let rng = Overlay.rng overlay in
  for _ = 1 to 50 do
    let key = Id.random rng ~width:Id.node_bits in
    let fast = Overlay.closest_live_node overlay key in
    (* brute force *)
    let best =
      Array.fold_left
        (fun best node ->
          match best with
          | None -> Some node
          | Some b -> if Id.closer ~target:key (Node.id node) (Node.id b) < 0 then Some node else best)
        None (Overlay.nodes overlay)
    in
    match best with
    | Some b -> check Alcotest.int "matches brute force" (Node.addr b) (Node.addr fast)
    | None -> Alcotest.fail "no nodes"
  done

let sorted_neighbours_ground_truth () =
  let overlay : unit Overlay.t = Overlay.create ~seed:15 () in
  Overlay.build_static overlay ~n:80;
  let rng = Overlay.rng overlay in
  for _ = 1 to 30 do
    let key = Id.random rng ~width:Id.node_bits in
    let got = Overlay.sorted_neighbours overlay key ~k:5 |> List.map Node.addr in
    let expected =
      Array.to_list (Overlay.nodes overlay)
      |> List.sort (fun a b -> Id.closer ~target:key (Node.id a) (Node.id b))
      |> List.filteri (fun i _ -> i < 5)
      |> List.map Node.addr
    in
    check (Alcotest.list Alcotest.int) "k closest" expected got
  done

let join_through_distant_bootstrap () =
  (* A joiner bootstrapped from the farthest node still converges. *)
  let overlay : unit Overlay.t = Overlay.create ~seed:16 () in
  Overlay.build_static overlay ~n:30;
  let joiner = Overlay.add_node overlay in
  Node.join joiner ~bootstrap:(Node.addr (Overlay.nodes overlay).(0));
  Overlay.run overlay;
  check Alcotest.bool "joined" true (Node.joined joiner);
  assert_leaf_invariant overlay

let sent (overlay : unit Overlay.t) kind =
  let sent, _, _ = Net.counters_for_kind (Overlay.net overlay) kind in
  sent

(* Messages of the §2.2 join protocol sent so far; Z sends exactly one
   join_leaf per join. *)
let join_messages overlay =
  List.fold_left (fun acc kind -> acc + sent overlay kind) 0
    [ "routed/join"; "join_rows"; "join_leaf" ]

let static_without_tail_sends_no_joins () =
  let overlay : unit Overlay.t = Overlay.create ~seed:21 () in
  Overlay.build_static ~dynamic_tail:0. overlay ~n:200;
  check Alcotest.int "join messages" 0 (join_messages overlay);
  assert_leaf_invariant overlay

let static_tail_joins_by_protocol () =
  let overlay : unit Overlay.t = Overlay.create ~seed:22 () in
  Overlay.build_static ~dynamic_tail:0.01 overlay ~n:300;
  check Alcotest.int "nodes" 300 (Overlay.node_count overlay);
  check Alcotest.int "protocol joins" 3 (sent overlay "join_leaf");
  Array.iter
    (fun node -> check Alcotest.bool "joined" true (Node.joined node))
    (Overlay.nodes overlay);
  assert_leaf_invariant overlay;
  assert_rt_invariant overlay

let static_rejects_bad_tail () =
  List.iter
    (fun (tail, shown) ->
      let overlay : unit Overlay.t = Overlay.create ~seed:23 () in
      Alcotest.check_raises shown
        (Invalid_argument
           (Printf.sprintf "Overlay.build_static: dynamic_tail %s is outside [0, 1]" shown))
        (fun () -> Overlay.build_static ~dynamic_tail:tail overlay ~n:10);
      check Alcotest.int "no node added" 0 (Overlay.node_count overlay))
    [ (2.0, "2"); (-0.5, "-0.5"); (Float.nan, "nan") ]

(* The ring-slice leaf sets assume a fresh overlay of distinct ids. *)
let static_rejects_rebuild_and_duplicate_ids () =
  let overlay : unit Overlay.t = Overlay.create ~seed:25 () in
  Overlay.build_static overlay ~n:10;
  Alcotest.check_raises "second build"
    (Invalid_argument "Overlay.build_static: the overlay already has 10 built nodes")
    (fun () -> Overlay.build_static overlay ~n:5);
  let overlay : unit Overlay.t = Overlay.create ~seed:26 () in
  let id = Id.of_hex ~width:Id.node_bits "abcd" in
  ignore (Overlay.add_node_with_id overlay ~id);
  ignore (Overlay.add_node_with_id overlay ~id);
  Alcotest.check_raises "duplicate id"
    (Invalid_argument ("Overlay.build_static: duplicate nodeId " ^ Id.to_hex id))
    (fun () -> Overlay.build_static overlay ~n:0)

(* Pre-registered nodes (as System.create registers its smartcard ids)
   are joined first, in insertion order; later growth joins on top. *)
let dynamic_joins_registered_then_grows () =
  let overlay : unit Overlay.t = Overlay.create ~seed:24 () in
  for _ = 1 to 40 do
    ignore (Overlay.add_node overlay)
  done;
  Overlay.build_dynamic overlay ~n:0;
  check Alcotest.int "one join per registered node but the first" 39 (sent overlay "join_leaf");
  Overlay.build_dynamic overlay ~n:20;
  check Alcotest.int "nodes" 60 (Overlay.node_count overlay);
  Array.iter
    (fun node -> check Alcotest.bool "joined" true (Node.joined node))
    (Overlay.nodes overlay);
  assert_leaf_invariant overlay;
  assert_rt_invariant overlay

(* Snapshot fixed-point pin: a digest of every node's full routing
   state after [build_static] — both leaf-set sides in order, every
   routing cell, the neighbourhood in order — plus the overlay rng's
   next draw and the clock after the network drains. Any change to the
   builder's rng draw order or to what it writes moves the digest.
   N = 0..3, 17 and 33 cover the empty and sparse rings: while N - 1 <
   l (32 by default) the two leaf-set slices overlap, and at N = 17 and
   N = 33 they just cover the ring. *)
module Neighborhood = Past_pastry.Neighborhood
module Topology = Past_simnet.Topology

let state_digest ?(dynamic_tail = 0.0) ~config ~topology ~locality ~rt_samples ~n () =
  let overlay : unit Overlay.t = Overlay.create ~config ~topology ~seed:(31 + n) () in
  Overlay.build_static ~locality ~rt_samples ~dynamic_tail overlay ~n;
  let buf = Buffer.create 4096 in
  let addrs tag peers =
    Buffer.add_string buf tag;
    List.iter (fun (p : Peer.t) -> Buffer.add_string buf (Printf.sprintf " %d" p.Peer.addr)) peers;
    Buffer.add_char buf '\n'
  in
  Array.iter
    (fun node ->
      let ls = Node.leaf_set node and rt = Node.routing_table node in
      addrs "s" (Leaf_set.smaller ls);
      addrs "l" (Leaf_set.larger ls);
      for row = 0 to Config.rows config - 1 do
        for col = 0 to Config.cols config - 1 do
          match Routing_table.lookup rt ~row ~col with
          | None -> ()
          | Some p -> Buffer.add_string buf (Printf.sprintf "%d.%d=%d " row col p.Peer.addr)
        done
      done;
      addrs "\nn" (Neighborhood.members (Node.neighborhood node)))
    (Overlay.nodes overlay);
  Buffer.add_string buf (Int64.to_string (Past_stdext.Rng.bits64 (Overlay.rng overlay)));
  Overlay.run overlay;
  Buffer.add_string buf (Printf.sprintf " %h" (Net.now (Overlay.net overlay)));
  Buffer.contents buf

(* One digest per (topology, N) over the 16-configuration grid b x
   locality x rt_samples, and one per default build at N=2000. *)
let static_fixed_point_pinned () =
  let topologies = [ ("plane", Topology.plane); ("transit_stub", Topology.transit_stub) ] in
  let grid_case (tname, topology) n =
    let buf = Buffer.create 65536 in
    List.iter
      (fun b ->
        let config = { Config.default with Config.b } in
        List.iter
          (fun locality ->
            List.iter
              (fun rt_samples ->
                Buffer.add_string buf
                  (state_digest ~config ~topology:(topology ()) ~locality ~rt_samples ~n ()))
              [ 8; 64 ])
          [ true; false ])
      [ 1; 2; 4; 8 ];
    (Printf.sprintf "%s N=%d" tname n, Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  let default_case dynamic_tail =
    let d =
      state_digest ~dynamic_tail ~config:Config.default ~topology:(Topology.plane ())
        ~locality:true ~rt_samples:8 ~n:2000 ()
    in
    (Printf.sprintf "default N=2000 tail=%g" dynamic_tail, Digest.to_hex (Digest.string d))
  in
  let got =
    List.concat_map
      (fun topo -> List.map (grid_case topo) [ 0; 1; 2; 3; 17; 33; 300 ])
      topologies
    @ [ default_case 0.0; default_case 0.05 ]
  in
  let expected =
    [
      ("plane N=0", "2ea093e1bdb273e87f656015782e0a8f");
      ("plane N=1", "66baac1f9401d251e11927bcde2147db");
      ("plane N=2", "dfad3f059dd7ea0e6223e585a8601743");
      ("plane N=3", "8f47621f2670badc3f5402dd06506453");
      ("plane N=17", "f881c42300e6280d297e2c2036ceba95");
      ("plane N=33", "58921c3337d831b3f9e1eaafdaee2bef");
      ("plane N=300", "4d59ccb2faa32808df7c78a3e97e6644");
      ("transit_stub N=0", "2ea093e1bdb273e87f656015782e0a8f");
      ("transit_stub N=1", "66baac1f9401d251e11927bcde2147db");
      ("transit_stub N=2", "dfad3f059dd7ea0e6223e585a8601743");
      ("transit_stub N=3", "5ebf9776d8cc63a2f8ff7dea8236ad2a");
      ("transit_stub N=17", "2bf95c5e9361934ecbc0ae80f7aebee0");
      ("transit_stub N=33", "1dcc87e64b3f63b4d2cc4818f6b46480");
      ("transit_stub N=300", "356fa5bbe8cd859e084f4b6d8c6d1b8c");
      ("default N=2000 tail=0", "fa44a585908da23514ba4378751f4427");
      ("default N=2000 tail=0.05", "85c2f00e193ae5cd2ada906d9cd05000");
    ]
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "fixed point" expected got

let suite =
  ( "pastry-overlay",
    [
      "static build invariants" => static_build_invariants;
      "static routing exact" => static_routing_exact;
      "dynamic build invariants" => dynamic_build_invariants;
      "dynamic routing exact" => dynamic_routing_exact;
      "hops logarithmic" => hops_logarithmic;
      "route to own key is local" => route_to_own_key_is_local;
      "direct messages" => direct_messages;
      "state size bounded" => state_size_bounded;
      "failure detection and repair" => failure_detection_and_repair;
      "routing survives failures" => routing_survives_failures_without_maintenance;
      "node revival" => node_revival;
      "randomized routing correct" => randomized_routing_correct;
      "malicious node drops" => malicious_node_drops;
      "closest_live_node ground truth" => closest_live_node_ground_truth;
      "sorted_neighbours ground truth" => sorted_neighbours_ground_truth;
      "join via distant bootstrap" => join_through_distant_bootstrap;
      "static no-tail sends no joins" => static_without_tail_sends_no_joins;
      "static tail joins by protocol" => static_tail_joins_by_protocol;
      "static rejects bad dynamic_tail" => static_rejects_bad_tail;
      "static rejects rebuild, duplicate ids" => static_rejects_rebuild_and_duplicate_ids;
      "dynamic joins registered first" => dynamic_joins_registered_then_grows;
      "static fixed point pinned" => static_fixed_point_pinned;
    ] )
