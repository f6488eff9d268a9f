(* Prebuilt fixtures and single-operation closures for the Bechamel
   micro-benchmarks: all construction happens here, outside the timed
   regions. *)

module Id = Past_id.Id
module Rng = Past_stdext.Rng
module Config = Past_pastry.Config
module Peer = Past_pastry.Peer
module Leaf_set = Past_pastry.Leaf_set
module Routing_table = Past_pastry.Routing_table
module Overlay = Past_pastry.Overlay
module PNode = Past_pastry.Node
module Net = Past_simnet.Net
module System = Past_core.System
module Client = Past_core.Client
module Store = Past_core.Store
module Cache = Past_core.Cache
module Wheel = Past_stdext.Timing_wheel

type probe = unit

let rng = Rng.create 77

(* --- leaf-set insertion ------------------------------------------------ *)

let leaf_own = Id.random rng ~width:Id.node_bits
let leaf_peers = Array.init 64 (fun i -> Peer.make ~id:(Id.random rng ~width:Id.node_bits) ~addr:i)
let leaf_i = ref 0

let leaf_insert_once () =
  (* A fresh leaf set every 64 inserts keeps the structure in its
     steady mixed state without unbounded growth. *)
  let ls = Leaf_set.create ~config:Config.default ~own:leaf_own () in
  for j = 0 to 31 do
    ignore (Leaf_set.add ls ~now:0.0 leaf_peers.((!leaf_i + j) mod 64))
  done;
  incr leaf_i

(* --- routing-table consider -------------------------------------------- *)

let rt =
  Routing_table.create ~config:Config.default
    ~own:(Id.random rng ~width:Id.node_bits)
    ~proximity:(fun a -> float_of_int (a land 0xff))
    ()
let rt_peers = Array.init 256 (fun i -> Peer.make ~id:(Id.random rng ~width:Id.node_bits) ~addr:i)

(* One call is below the timer's resolution, so a run times 1024; the
   same holds for the admission check and the id rows below. *)
let rt_consider_1024 () =
  for j = 0 to 1023 do
    ignore (Routing_table.consider rt rt_peers.(j land 255))
  done

(* --- store admission ---------------------------------------------------- *)

let store = Store.create ~capacity:1_000_000 ()

let store_admit_1024 () =
  for _ = 1 to 1024 do
    ignore (Sys.opaque_identity (Store.admits store ~size:10_000 ~kind:`Primary))
  done

(* --- id comparison, hex and shared prefix --------------------------------- *)

(* A target and 1024 random pairs, from their own stream so the
   fixtures below draw what they always drew from [rng]. *)
let ids_rng = Rng.create 79
let id_target = Id.random ids_rng ~width:Id.node_bits

let id_pairs =
  Array.init 1024 (fun _ ->
      (Id.random ids_rng ~width:Id.node_bits, Id.random ids_rng ~width:Id.node_bits))

let id_closer_1024 () =
  Array.iter (fun (a, b) -> ignore (Sys.opaque_identity (Id.closer ~target:id_target a b))) id_pairs

let id_to_hex_1024 () = Array.iter (fun (a, _) -> ignore (Sys.opaque_identity (Id.to_hex a))) id_pairs

let shared_prefix_1024 () =
  Array.iter
    (fun (a, b) -> ignore (Sys.opaque_identity (Id.shared_prefix_digits ~b:4 a b)))
    id_pairs

(* --- cache cycle --------------------------------------------------------- *)

let cache = Cache.create Cache.Gds

let card =
  let broker = Past_core.Broker.create ~mode:`Insecure (Rng.create 3) in
  match Past_core.Broker.issue_card broker ~quota:max_int ~contributed:0 with
  | Ok c -> c
  | Error _ -> assert false

let cache_cert name =
  match
    Past_core.Smartcard.issue_file_certificate card ~name ~data:"" ~declared_size:1_000
      ~replication:1 ~now:0.0 ()
  with
  | Ok c -> c
  | Error _ -> assert false

let cache_certs = Array.init 128 (fun i -> cache_cert (string_of_int i))

let () = Cache.set_budget cache 50_000
let cache_i = ref 0

let cache_cycle_once () =
  let cert = cache_certs.(!cache_i land 127) in
  ignore (Cache.offer cache ~cert ~data:"");
  ignore (Cache.find cache cert.Past_core.Certificate.file_id);
  incr cache_i

(* --- cache at full budget ----------------------------------------------- *)

(* 2000 files cycled through a GD-S cache that holds 1000 of them:
   every offer misses, admits the file and evicts one. *)
let full_cache = Cache.create Cache.Gds
let full_cache_certs = Array.init 2000 (fun i -> cache_cert (Printf.sprintf "full-%d" i))

let () =
  Cache.set_budget full_cache 1_000_000;
  for i = 0 to 999 do
    ignore (Cache.offer full_cache ~cert:full_cache_certs.(i) ~data:"")
  done

let full_cache_i = ref 1000

(* One offer is near the timer's resolution, so a run times 1024. *)
let cache_offer_full_1024 () =
  for _ = 1 to 1024 do
    ignore (Cache.offer full_cache ~cert:full_cache_certs.(!full_cache_i mod 2000) ~data:"");
    incr full_cache_i
  done

(* --- timing wheel ------------------------------------------------------- *)

(* 3200 events pending, each popped one pushed back up to 3200 ticks
   later, as in pastbench's wheel replay. The increments come from
   their own stream, so the other fixtures draw what they always drew
   from [rng]. One cycle is below the timer's resolution, so a run
   times 1024. *)
let wheel_inc =
  let wheel_rng = Rng.create 80 in
  Array.init 1024 (fun _ -> Rng.float wheel_rng 3200.0)

let wheel = Wheel.create ()
let wheel_seq = ref 3200

let () =
  for i = 0 to 3199 do
    Wheel.push wheel ~time:wheel_inc.(i land 1023) ~seq:i ()
  done

let wheel_pop_push_1024 () =
  for j = 0 to 1023 do
    let time = Wheel.min_time wheel in
    Wheel.pop_min wheel;
    Wheel.push wheel ~time:(time +. wheel_inc.(j)) ~seq:!wheel_seq ();
    incr wheel_seq
  done

(* --- store receipt ------------------------------------------------------- *)

(* What a storing node does per replica: build the receipt material and
   sign it with its `Insecure card. *)
let receipt_file_id = Id.random rng ~width:Id.file_bits

let store_receipt_once () =
  ignore (Past_core.Smartcard.issue_store_receipt card ~file_id:receipt_file_id ~now:1.0)

(* --- routed lookups on a prebuilt overlay ------------------------------- *)

let overlay ?trace_capacity n : probe Overlay.t =
  let ov = Overlay.create ?trace_capacity ~seed:42 () in
  Overlay.build_static ov ~n;
  Overlay.install_apps ov (fun _ -> Past_experiments.Harness.null_app);
  ov

(* One lookup is too short for a stable fit on a shared host, so a run
   times 64, each routed to delivery before the next starts. *)
let route_64 ov =
  for _ = 1 to 64 do
    let key = Id.random (Overlay.rng ov) ~width:Id.node_bits in
    PNode.route (Overlay.random_node ov) ~key ();
    Overlay.run ov
  done

(* --- keep-alive path on a ring larger than the leaf set ------------------ *)

(* Node 0 of a 100-node static overlay (l = 32): its leaf set is two
   full sides with disjoint arcs, as on every node of the churn
   workload. *)
let leaf_node = (Overlay.nodes (overlay 100)).(0)
let leaf_members = Array.of_list (Leaf_set.members (PNode.leaf_set leaf_node))

(* What 32 keep-alive acks teach their receiver: each sender is a
   current leaf-set member. *)
let learn_leaf_members_once () = Array.iter (PNode.learn leaf_node) leaf_members

(* Keys from their own stream, so the fixtures below draw what they
   always drew from [rng]. *)
let replica_keys =
  let keys_rng = Rng.create 78 in
  Array.init 64 (fun _ -> Id.random keys_rng ~width:Id.node_bits)

(* One call is below the timer's resolution, so a run times 1024. *)
let replica_set_1024 () =
  let leaf = PNode.leaf_set leaf_node in
  for j = 0 to 1023 do
    ignore (Sys.opaque_identity (Leaf_set.replica_set leaf ~k:3 replica_keys.(j land 63)))
  done

(* --- one whole snapshot build -------------------------------------------- *)

(* A fresh overlay built by snapshot, every call from the same seed:
   node creation plus the bulk fixed-point write. *)
let static_build_once n () =
  let ov : probe Overlay.t = Overlay.create ~trace_capacity:0 ~seed:44 () in
  Overlay.build_static ov ~n

(* --- network proximity --------------------------------------------------- *)

(* Proximity between 1024 pseudo-random pairs of 4096 registered
   nodes per call: one call alone is below the timer's resolution. *)
let prox_net =
  let net = Net.create ~rng:(Rng.create 45) ~topology:(Past_simnet.Topology.plane ()) () in
  for _ = 1 to 4096 do
    ignore (Net.register net ~handler:(fun _ (_ : unit) -> ()))
  done;
  net

let prox_src = Array.init 1024 (fun _ -> Rng.int rng 4096)
let prox_dst = Array.init 1024 (fun _ -> Rng.int rng 4096)

let net_proximity_1024 () =
  let sum = ref 0.0 in
  for i = 0 to 1023 do
    sum := !sum +. Net.proximity prox_net prox_src.(i) prox_dst.(i)
  done;
  !sum

(* --- full PAST inserts on a prebuilt system ----------------------------- *)

type sys_fixture = { sys : System.t; client : Client.t; mutable n : int }

let system ?trace_capacity n =
  let node_config =
    {
      Past_core.Node.default_config with
      Past_core.Node.verify_certificates = false;
      cache_policy = Cache.No_cache;
      cache_on_insert_path = false;
      cache_on_lookup_path = false;
    }
  in
  let sys =
    System.create ?trace_capacity ~node_config ~build:`Static ~seed:43 ~n
      ~node_capacity:(fun _ _ -> max_int / 4)
      ()
  in
  let client = System.new_client sys ~verify:false ~quota:max_int () in
  { sys; client; n = 0 }

(* A run times 16 inserts, one after another, for the same reason as
   [route_64]. A refused insert would time the refusal path instead, so
   it fails the run. *)
let insert_16 fx =
  for _ = 1 to 16 do
    fx.n <- fx.n + 1;
    match
      Client.insert_sync fx.client
        ~name:(Printf.sprintf "bench-%d" fx.n)
        ~data:"" ~declared_size:1_000 ~k:3 ()
    with
    | Client.Inserted _ -> ()
    | Client.Insert_failed { attempts; reason } ->
      failwith (Printf.sprintf "bench insert %d failed after %d attempts: %s" fx.n attempts reason)
  done
