(* The determinism fixtures: fixed-seed runs rendered to strings that
   the test suite compares byte-for-byte against the committed golden
   files in test/, and that test/gen/gen_golden.exe prints to
   regenerate them. Any change to RNG consumption, event ordering or
   telemetry totals shows up as a diff. Regenerate a golden only when
   intentionally changing the behaviour it pins. *)

module Text_table = Past_stdext.Text_table
module Registry = Past_telemetry.Registry
module Id = Past_id.Id
module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
open Past_experiments

(* EXP1 (test/exp1_hops.golden): a fixed-seed, fixed-size run
   rendered together with the full telemetry snapshot of its first
   overlay.
   Regenerate with `dune exec test/gen/gen_golden.exe > test/exp1_hops.golden`. *)
let determinism_fixture () =
  let params =
    { Exp_hops.ns = [ 100; 300 ]; lookups = 150; b = 4; leaf_set_size = 32; seed = 1 }
  in
  let r = Exp_hops.run params in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "EXP1 (golden: ns=[100;300] lookups=150 b=4 l=32 seed=1)\n";
  Buffer.add_string buf (Text_table.render (Exp_hops.table r));
  (match r.Exp_hops.registries with
  | (n, reg) :: _ ->
    Buffer.add_string buf (Printf.sprintf "\ntelemetry snapshot (N=%d overlay)\n" n);
    Buffer.add_string buf (Text_table.render (Registry.to_table reg))
  | [] -> ());
  Buffer.contents buf

(* EXP14 (test/exp14_churn.golden): a scaled-down churn run rendered
   with its time-series and telemetry snapshot; it pins churn, failure
   detection, repair and the probe loop end to end. The plan's
   recoveries run Pastry's rejoin and PAST's repair kick through the
   system's liveness observers, as every revival does. Regenerate with
   `dune exec test/gen/gen_golden.exe -- churn > test/exp14_churn.golden`. *)
let churn_fixture () =
  let params =
    { Exp_churn.default_params with Exp_churn.n = 40; files = 24; duration = 60_000.0 }
  in
  let r = Exp_churn.run params in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "EXP14 (golden: n=40 files=24 duration=60000 seed=4)\n";
  Buffer.add_string buf (Text_table.render (Exp_churn.table r));
  Buffer.add_string buf "\nchurn time-series\n";
  Buffer.add_string buf (Text_table.render (Exp_churn.series_table r));
  Buffer.add_string buf "\ntelemetry snapshot\n";
  Buffer.add_string buf (Text_table.render (Registry.to_table r.Exp_churn.registry));
  Buffer.contents buf

(* EXP15 (test/exp15_scale.golden): a per-route dump over a
   snapshot-built overlay (N = 300, 60 lookups, seed 15). Any change to
   the builder's RNG draw order, the packed-table layout or routing
   policy shows a diff here. It leaves out wall clock and memory, so
   its bytes are stable. Regenerate with
   `dune exec test/gen/gen_golden.exe -- scale > test/exp15_scale.golden`. *)
let route_dump () =
  let n = 300 and lookups = 60 and seed = 15 in
  let overlay : Harness.probe Overlay.t = Overlay.create ~trace_capacity:0 ~seed () in
  Overlay.build_static ~dynamic_tail:0.01 overlay ~n;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "EXP15 route golden (n=%d lookups=%d seed=%d, snapshot builder)\n" n
       lookups seed);
  let last = ref None in
  Overlay.install_apps overlay (fun node ->
      {
        Harness.null_app with
        Node.deliver = (fun ~key:_ _ info -> last := Some (Node.id node, info.Node.hops));
      });
  let rng = Overlay.rng overlay in
  for i = 1 to lookups do
    let key = Id.random rng ~width:Id.node_bits in
    let src = Overlay.random_live_node overlay in
    last := None;
    Node.route src ~key ();
    Overlay.run overlay;
    match !last with
    | Some (dest, hops) ->
      Buffer.add_string buf
        (Printf.sprintf "%02d key=%s src=%s dest=%s hops=%d\n" i (Id.short key)
           (Id.short (Node.id src)) (Id.short dest) hops)
    | None -> Buffer.add_string buf (Printf.sprintf "%02d key=%s LOST\n" i (Id.short key))
  done;
  Buffer.contents buf

(* EXP11 (test/exp11_caching.golden): the default run (under a second)
   with full-precision per-cell figures and its hit-rate trajectory; it
   pins cache admission and eviction order end to end, GD-S's tie rule
   included. Regenerate with
   `dune exec test/gen/gen_golden.exe -- caching > test/exp11_caching.golden`. *)
let caching_fixture () =
  let p = Exp_caching.default_params in
  let r = Exp_caching.run p in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "EXP11 (golden: default params n=%d catalog=%d lookups=%d seed=%d)\n"
       p.Exp_caching.n p.Exp_caching.catalog p.Exp_caching.lookups p.Exp_caching.seed);
  Buffer.add_string buf (Text_table.render (Exp_caching.table r));
  (* The table rounds to 0.1%; these full-precision figures move with a
     single changed eviction. *)
  Buffer.add_string buf "\npolicy fill: cache-hit fraction, fetch distance, load CV\n";
  List.iter
    (fun (row : Exp_caching.row) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %.1f: %.9f %.6f %.9f\n"
           (Past_core.Cache.policy_name row.Exp_caching.policy)
           row.Exp_caching.fill row.Exp_caching.cache_hit_fraction row.Exp_caching.avg_dist
           row.Exp_caching.query_load_cv))
    r.Exp_caching.rows;
  Buffer.add_string buf "\nhit-rate trajectory\n";
  Buffer.add_string buf (Text_table.render (Exp_caching.trajectory_table r));
  Buffer.contents buf
