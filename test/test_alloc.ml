(* Allocation budgets on the per-message path, in minor-heap words.

   Every simulated message runs Net.send, a timing-wheel push and pop,
   a jitter draw, a latency observation and a Node.learn of its
   sender. At millions of messages per run the words allocated there
   drive minor GC, so each budget below pins the steady-state cost
   after warm-up: a closure, an option or a boxed store reintroduced
   on one of these paths fails it.

   The crypto budgets pin the insert path's hashing: every operation
   signs and verifies certificates and receipts over ~300-byte
   materials. *)

module Rng = Past_stdext.Rng
module Histogram = Past_telemetry.Histogram
module Net = Past_simnet.Net
module Overlay = Past_pastry.Overlay
module PNode = Past_pastry.Node
module Message = Past_pastry.Message
module Peer = Past_pastry.Peer
module Leaf_set = Past_pastry.Leaf_set
module Neighborhood = Past_pastry.Neighborhood
module Routing_table = Past_pastry.Routing_table
module Sha1 = Past_crypto.Sha1
module Sha256 = Past_crypto.Sha256
module Hex = Past_crypto.Hex
module Wheel = Past_stdext.Timing_wheel
module Trace = Past_telemetry.Trace

let ( => ) name f = Alcotest.test_case name `Quick f

(* Minor words allocated per call of [f], after [warmup] calls. *)
let words_per_call ?(warmup = 1_000) ~calls f =
  for _ = 1 to warmup do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let within what ~budget words =
  if words > budget then
    Alcotest.failf "%s: %.2f minor words per call, budget %.1f" what words budget

(* The drawn float is returned boxed (2 words); the generator state is
   updated in place. *)
let rng_float () =
  let rng = Rng.create 1 in
  within "Rng.float" ~budget:2.0
    (words_per_call ~calls:100_000 (fun () -> ignore (Sys.opaque_identity (Rng.float rng 1.0))))

(* The warm-up overfills the 1024-sample reservoir, so the measured
   calls also take the replacement path and its generator step. A
   budget under 2 words admits no per-call block at all. *)
let histogram_observe () =
  let h = Histogram.create () in
  within "Histogram.observe" ~budget:0.5
    (words_per_call ~warmup:2_048 ~calls:100_000 (fun () -> Histogram.observe h 1.5))

(* The routing comparisons keep their int64 words unboxed: a budget
   under 1 word admits no per-call block at all. *)
let id_triples =
  let rng = Rng.create 3 in
  Array.init 64 (fun _ ->
      let id () = Past_id.Id.random rng ~width:128 in
      (id (), id (), id ()))

let id_closer () =
  let i = ref 0 in
  within "Id.closer" ~budget:0.0
    (words_per_call ~calls:100_000 (fun () ->
         incr i;
         let t, x, y = id_triples.(!i land 63) in
         ignore (Sys.opaque_identity (Past_id.Id.closer ~target:t x y))))

let id_cw_compare () =
  let i = ref 0 in
  within "Id.cw_compare" ~budget:0.0
    (words_per_call ~calls:100_000 (fun () ->
         incr i;
         let f, x, y = id_triples.(!i land 63) in
         ignore (Sys.opaque_identity (Past_id.Id.cw_compare ~from:f x y))))

(* A converged static overlay of 32 nodes: with l = 32 and a
   neighborhood of 32, every node holds every other in its leaf set and
   its neighborhood. *)
let converged_overlay () =
  let ov : unit Overlay.t = Overlay.create ~seed:11 () in
  Overlay.build_static ov ~n:32;
  Overlay.run ov;
  ov

(* The proximity handed to the routing table and the neighborhood is a
   boxed float (2 words); the three tables refuse the offer without
   allocating. *)
let learn_known_peer () =
  let ov = converged_overlay () in
  let node = (Overlay.nodes ov).(0) in
  let known (p : Peer.t) =
    Leaf_set.mem_addr (PNode.leaf_set node) p.Peer.addr
    && List.exists
         (fun (q : Peer.t) -> q.Peer.addr = p.Peer.addr)
         (Neighborhood.members (PNode.neighborhood node))
  in
  match List.filter known (Routing_table.peers (PNode.routing_table node)) with
  | [] -> Alcotest.fail "no peer sits in all three tables"
  | peer :: _ ->
    within "Node.learn of a peer already in all three tables" ~budget:2.0
      (words_per_call ~calls:20_000 (fun () -> PNode.learn node peer))

(* A converged static overlay of 100 nodes, l = 32: each leaf set is
   two full sides whose arcs are disjoint, the state of every node of a
   ring larger than l + 1. *)
let sparse_overlay () =
  let ov : unit Overlay.t = Overlay.create ~seed:12 () in
  Overlay.build_static ov ~n:100;
  Overlay.run ov;
  ov

(* The learn of a leaf-set member, the common case under keep-alive
   traffic: the leaf set answers from its membership scan, the routing
   table and the neighbourhood as above. *)
let learn_leaf_member () =
  let ov = sparse_overlay () in
  let node = (Overlay.nodes ov).(0) in
  let leaf = PNode.leaf_set node in
  if List.length (Leaf_set.members leaf) <> 32 then
    Alcotest.fail "leaf set is not 2 x 16 distinct";
  let peer = List.hd (Leaf_set.larger leaf) in
  within "Node.learn of a leaf-set member (N = 100)" ~budget:2.0
    (words_per_call ~calls:20_000 (fun () -> PNode.learn node peer))

(* The coverage test every routed hop makes, on two full sides with
   disjoint arcs: one exact comparison, no distance built. *)
let covers_disjoint () =
  let leaf = PNode.leaf_set (Overlay.nodes (sparse_overlay ())).(0) in
  let rng = Rng.create 6 in
  let keys = Array.init 64 (fun _ -> Past_id.Id.random rng ~width:128) in
  let i = ref 0 in
  within "Leaf_set.covers (N = 100)" ~budget:0.0
    (words_per_call ~calls:100_000 (fun () ->
         incr i;
         ignore (Sys.opaque_identity (Leaf_set.covers leaf keys.(!i land 63)))))

(* The last hop of every routed message: the closest of own id and
   the members, on two full sides with disjoint arcs. The [Some]
   around the member (2 words) is the only block. *)
let closest_including_self () =
  let leaf = PNode.leaf_set (Overlay.nodes (sparse_overlay ())).(0) in
  let rng = Rng.create 8 in
  let keys = Array.init 64 (fun _ -> Past_id.Id.random rng ~width:128) in
  let i = ref 0 in
  within "Leaf_set.closest_including_self (N = 100)" ~budget:2.0
    (words_per_call ~calls:100_000 (fun () ->
         incr i;
         ignore (Sys.opaque_identity (Leaf_set.closest_including_self leaf keys.(!i land 63)))))

(* One pop and one push at 3200 pending, each popped event pushed back
   up to 3200 ticks later, as in pastbench's wheel replay: the cell
   (4 words), its boxed time (2) and the bucket cons (3). *)
let wheel_cycle () =
  let rng = Rng.create 9 in
  let inc = Array.init 1024 (fun _ -> Rng.float rng 3200.0) in
  let w = Wheel.create () in
  for i = 0 to 3199 do
    Wheel.push w ~time:inc.(i land 1023) ~seq:i i
  done;
  let seq = ref 3200 in
  within "Timing_wheel push + pop_min (3200 pending)" ~budget:9.0
    (words_per_call ~calls:100_000 (fun () ->
         let time = Wheel.min_time w in
         let v = Wheel.pop_min w in
         Wheel.push w ~time:(time +. Array.unsafe_get inc (!seq land 1023)) ~seq:!seq v;
         incr seq))

(* Recording into a ring that has wrapped overwrites one slot of each
   unboxed column and counts the drop: no block, so nothing a traced
   run records is promoted by the ring. The kind is built once, as a
   caller passing a constant kind would. *)
let trace_record_wrapped () =
  let tr = Trace.create ~capacity:64 () in
  let kind = Trace.Hop { span = 7; seq = 2; to_ = 11; stage = Trace.Routing_table } in
  let node = ref 0 in
  within "Trace.record into a wrapped ring" ~budget:0.0
    (words_per_call ~calls:100_000 (fun () ->
         incr node;
         Trace.record tr ~time:1.5 ~node:(!node land 31) kind));
  if Trace.dropped_total tr <> Trace.total_recorded tr - 64 then
    Alcotest.fail "every overwrite is counted as a drop"

(* A keep-alive from a node to a leaf-set member and the member's ack:
   two sends, two wheel pushes and pops, two deliveries, two learns,
   each delivery stamping its sender's leaf-set slot as heard (liveness
   is tracked as under maintenance, without its timers). *)
let keepalive_round_trip () =
  let ov = converged_overlay () in
  let net = Overlay.net ov in
  Array.iter
    (fun n -> Leaf_set.track_liveness (PNode.leaf_set n) ~now:(Net.now net) ~due:infinity)
    (Overlay.nodes ov);
  let a = (Overlay.nodes ov).(0) in
  let dst =
    match Leaf_set.members (PNode.leaf_set a) with
    | p :: _ -> p.Peer.addr
    | [] -> Alcotest.fail "empty leaf set"
  in
  let src = PNode.addr a in
  let keepalive : unit Message.t = Message.Keepalive { from = PNode.self a } in
  let delivered = Net.messages_delivered net in
  let words =
    words_per_call ~warmup:100 ~calls:5_000 (fun () ->
        Net.send net ~src ~dst keepalive;
        Net.run net)
  in
  Alcotest.(check int)
    "keep-alive and ack delivered every time" (2 * 5_100)
    (Net.messages_delivered net - delivered);
  within "keep-alive send + deliver round trip" ~budget:50.0 words

(* Replica sets for 64 random keys at node 0 of [ov], in turn. *)
let replica_set_k3_on ov what ~budget =
  let ls = PNode.leaf_set (Overlay.nodes ov).(0) in
  let rng = Rng.create 5 in
  let keys = Array.init 64 (fun _ -> Past_id.Id.random rng ~width:128) in
  let i = ref 0 in
  within what ~budget
    (words_per_call ~calls:20_000 (fun () ->
         incr i;
         ignore (Sys.opaque_identity (Leaf_set.replica_set ls ~k:3 keys.(!i land 63)))))

(* Re-replication and reclaim routing pick the k = 3 closest of own id
   and 31 leaf-set members. Where the arcs overlap: two slot arrays,
   the few candidates that enter the best k, and the result list. *)
let replica_set_k3 () =
  replica_set_k3_on (converged_overlay ()) "Leaf_set.replica_set (k = 3, 31 members)" ~budget:64.0

(* With disjoint arcs the replica set is read off a window of the
   sorted leaf set: the result is the only allocation, a list cell and
   a [`Peer] block (3 words each) per member it names. *)
let replica_set_window () =
  replica_set_k3_on (sparse_overlay ()) "Leaf_set.replica_set (k = 3, N = 100)" ~budget:18.0

(* A digest allocates its state, message schedule, padded tail (one or
   two blocks) and result, and nothing per input block: 320 bytes are
   five blocks, the sixth is the tail. *)
let material_320 = String.init 320 (fun i -> Char.chr (i land 0xff))

let sha256_320 () =
  within "Sha256.digest_string (320 B)" ~budget:128.0
    (words_per_call ~calls:20_000 (fun () ->
         ignore (Sys.opaque_identity (Sha256.digest_string material_320))))

let sha1_320 () =
  within "Sha1.digest_string (320 B)" ~budget:128.0
    (words_per_call ~calls:20_000 (fun () ->
         ignore (Sys.opaque_identity (Sha1.digest_string material_320))))

(* The 64-character result string is the only block. *)
let hex_32 () =
  let digest = Sha256.digest_string "x" in
  within "Hex.of_bytes (32-byte digest)" ~budget:16.0
    (words_per_call ~calls:100_000 (fun () -> ignore (Sys.opaque_identity (Hex.of_bytes digest))))

let suite =
  ( "alloc",
    [
      "Rng.float" => rng_float;
      "Histogram.observe" => histogram_observe;
      "Id.closer" => id_closer;
      "Id.cw_compare" => id_cw_compare;
      "Node.learn of a known peer" => learn_known_peer;
      "keep-alive round trip" => keepalive_round_trip;
      "Trace.record into a wrapped ring" => trace_record_wrapped;
      "Leaf_set.replica_set (k = 3)" => replica_set_k3;
      "Node.learn of a leaf member (N = 100)" => learn_leaf_member;
      "Leaf_set.replica_set window (k = 3, N = 100)" => replica_set_window;
      "Leaf_set.covers (N = 100)" => covers_disjoint;
      "Leaf_set.closest_including_self (N = 100)" => closest_including_self;
      "Timing_wheel push + pop_min (3200 pending)" => wheel_cycle;
      "Sha256.digest_string (320 B)" => sha256_320;
      "Sha1.digest_string (320 B)" => sha1_320;
      "Hex.of_bytes (32-byte digest)" => hex_32;
    ] )
