(* Smoke tests for the experiment harness: each experiment runs at a
   tiny scale and its result must have the paper's qualitative shape.
   These guard the `past_sim` / `bench` entry points end to end. *)

module Stats = Past_stdext.Stats

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let hops_grow_logarithmically () =
  let open Past_experiments.Exp_hops in
  let r = run { ns = [ 100; 1000 ]; lookups = 200; b = 4; leaf_set_size = 32; seed = 5 } in
  match r.rows with
  | [ small; large ] ->
    check Alcotest.int "no misrouting (small)" 0 small.misdelivered;
    check Alcotest.int "no misrouting (large)" 0 large.misdelivered;
    check Alcotest.bool "hops grow with N" true (large.avg_hops > small.avg_hops);
    check Alcotest.bool "within bound" true (large.avg_hops < large.bound)
  | _ -> Alcotest.fail "expected two rows"

let registries_follow_row_order () =
  (* Retained telemetry registries must line up with the rows they came
     from — in params.ns submission order, not accumulation order — so
     `--trace` attributes routes to the right N. *)
  let open Past_experiments.Exp_hops in
  let ns = [ 300; 100; 200 ] in
  let r = run { ns; lookups = 50; b = 4; leaf_set_size = 16; seed = 21 } in
  check (Alcotest.list Alcotest.int) "rows in ns order" ns
    (List.map (fun (row : row) -> row.n) r.rows);
  check (Alcotest.list Alcotest.int) "registries in ns order" ns (List.map fst r.registries)

let hop_distribution_sums_to_one () =
  let open Past_experiments.Exp_hops in
  let d = run_distribution { dn = 500; dlookups = 500; db = 4; dseed = 6 } in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 d.probs in
  check Alcotest.bool "probabilities sum to 1" true (abs_float (total -. 1.0) < 1e-6)

let state_below_formula () =
  let open Past_experiments.Exp_state in
  let r = run { ns = [ 200 ]; b = 4; leaf_set_size = 32; seed = 7 } in
  match r.rows with
  | [ row ] ->
    check Alcotest.bool "avg RT below formula bound" true (row.avg_rt_entries < row.formula)
  | _ -> Alcotest.fail "one row expected"

let locality_beats_baseline () =
  let open Past_experiments.Exp_locality in
  let r = run { ns = [ 600 ]; lookups = 300; seed = 8 } in
  let ratio loc =
    match List.find_opt (fun row -> row.locality = loc) r.rows with
    | Some row -> row.avg_ratio
    | None -> Alcotest.fail "row missing"
  in
  check Alcotest.bool "proximity-aware routes shorter" true (ratio true < ratio false);
  check Alcotest.bool "ratio sane (>= 1)" true (ratio true >= 1.0)

let replica_prefers_near () =
  let open Past_experiments.Exp_replica in
  let r = run { n = 800; k = 5; lookups = 300; trials = 2; seed = 9 } in
  let total = float_of_int (max 1 r.lookups_done) in
  let nearest = float_of_int r.hit_nearest /. total in
  check Alcotest.bool
    (Printf.sprintf "nearest replica dominates (%.2f)" nearest)
    true (nearest > 0.4);
  check Alcotest.bool "monotone-ish rank distribution" true
    (r.rank_counts.(0) > r.rank_counts.(4))

let leaf_failures_threshold () =
  let open Past_experiments.Exp_failures in
  let r =
    run
      {
        n = 300;
        leaf_set_size = 8;
        failure_counts = [ 0; 2; 6 ];
        trials = 3;
        lookups_per_trial = 15;
        seed = 10;
      }
  in
  (match r.rows with
  | [ r0; r2; r6 ] ->
    check (Alcotest.float 1e-9) "m=0 perfect" 1.0 r0.success_rate;
    check (Alcotest.float 1e-9) "m=2 < l/2 perfect" 1.0 r2.success_rate;
    check Alcotest.bool "m=6 >= l/2 degrades" true (r6.success_rate < 1.0)
  | _ -> Alcotest.fail "three rows expected")

let maintenance_costs_bounded () =
  let open Past_experiments.Exp_maintenance in
  let r = run { ns = [ 60 ]; join_samples = 5; fail_samples = 2; seed = 11 } in
  match r.rows with
  | [ row ] ->
    check Alcotest.bool "join cost positive" true (row.avg_join_msgs > 0.0);
    check Alcotest.bool "join cost far below N" true (row.avg_join_msgs < 60.0 *. 4.0);
    check Alcotest.bool "repair cost positive" true (row.avg_repair_msgs > 0.0)
  | _ -> Alcotest.fail "one row expected"

let randomized_retries_beat_deterministic () =
  let open Past_experiments.Exp_malicious in
  let r = run { n = 400; fractions = [ 0.2 ]; lookups = 150; max_retries = 4; seed = 12 } in
  match r.rows with
  | [ row ] ->
    let with_retries = row.rand_success.(3) in
    check Alcotest.bool
      (Printf.sprintf "rand+retries %.2f > det %.2f" with_retries row.det_success)
      true
      (with_retries > row.det_success +. 0.05)
  | _ -> Alcotest.fail "one row expected"

let storage_policies_ordered () =
  let open Past_experiments.Exp_storage in
  let params =
    {
      default_params with
      n = 60;
      capacity_mean = 500_000;
      sizes = capped_sizes ~capacity_mean:500_000;
      seed = 13;
    }
  in
  let r = run params in
  let util p =
    match List.find_opt (fun row -> row.policy = p) r.rows with
    | Some row -> row.final_utilization
    | None -> Alcotest.fail "row missing"
  in
  check Alcotest.bool "full >= thresholds" true (util Full >= util Thresholds -. 0.03);
  check Alcotest.bool "full beats baseline" true (util Full > util Baseline);
  check Alcotest.bool "full reaches high utilization" true (util Full > 0.85);
  (* rejection biased toward large files in the managed policies *)
  (match List.find_opt (fun row -> row.policy = Full) r.rows with
  | Some row ->
    if row.inserts_rejected > 0 then
      check Alcotest.bool "rejects biased to large files" true
        (row.mean_size_rejected > row.mean_size_accepted)
  | None -> ())

let caching_reduces_distance () =
  let open Past_experiments.Exp_caching in
  let params =
    {
      default_params with
      n = 60;
      catalog = 100;
      lookups = 600;
      fill_fractions = [ 0.3 ];
      policies = [ Past_core.Cache.No_cache; Past_core.Cache.Gds ];
      seed = 14;
    }
  in
  let r = run params in
  let row p =
    match List.find_opt (fun row -> row.policy = p) r.rows with
    | Some row -> row
    | None -> Alcotest.fail "row missing"
  in
  let off = row Past_core.Cache.No_cache and on = row Past_core.Cache.Gds in
  check (Alcotest.float 1e-9) "no hits without caching" 0.0 off.cache_hit_fraction;
  check Alcotest.bool "caching produces hits" true (on.cache_hit_fraction > 0.1);
  check Alcotest.bool "caching shortens fetches" true (on.avg_dist < off.avg_dist);
  check Alcotest.bool "caching balances load" true (on.query_load_cv < off.query_load_cv)

let balance_and_diversity () =
  let open Past_experiments.Exp_balance in
  let r = run { n = 120; files = 600; k = 3; diversity_samples = 100; trials = 2; seed = 15 } in
  check Alcotest.bool "mean files per node ~ files*k/n" true
    (abs_float (r.files_per_node_mean -. (600.0 *. 3.0 /. 120.0)) < 2.0);
  check Alcotest.bool "replica sets as diverse as random" true
    (abs_float (r.diversity_ratio -. 1.0) < 0.15)

(* The two formerly-sequential experiments now fan out per-trial over
   the domain pool; their rendered JSON must be byte-identical at any
   pool width (the order-preserving merge plus per-trial streams from
   Rng.derive are what make that true). *)
let replica_balance_jobs_byte_identical () =
  let module Domain_pool = Past_stdext.Domain_pool in
  let module Json = Past_stdext.Json in
  let module Text_table = Past_stdext.Text_table in
  let render jobs =
    Domain_pool.set_jobs jobs;
    let r =
      Past_experiments.Exp_replica.(
        table (run { n = 400; k = 5; lookups = 120; trials = 4; seed = 21 }))
    in
    let b =
      Past_experiments.Exp_balance.(
        table
          (run { n = 100; files = 400; k = 3; diversity_samples = 80; trials = 4; seed = 22 }))
    in
    Json.to_string (Json.List [ Text_table.to_json r; Text_table.to_json b ])
  in
  let j1 = render 1 in
  let j4 = render 4 in
  Domain_pool.set_jobs (Domain_pool.recommended ());
  check Alcotest.string "replica+balance JSON identical at jobs 1 vs 4" j1 j4

let quota_economy_conserves () =
  let open Past_experiments.Exp_quota in
  let r = run { default_params with n = 40; users = 5; inserts_per_user = 6; seed = 16 } in
  check Alcotest.bool "conservation" true r.conservation_holds;
  check Alcotest.int "no quota denials in sized workload" 0 r.inserts_denied_by_quota;
  check Alcotest.bool "reclaims credited" true
    (r.quota_used_after_reclaims < r.quota_used_after_inserts)

(* Byte-compare [actual] against the committed golden [file]: any drift
   in RNG consumption, event ordering or telemetry counter totals — e.g.
   from a hot-path "optimization" that is not actually
   behavior-preserving — fails here. Regenerate (`dune exec
   test/gen/gen_golden.exe -- <gen>`) only when the change in behavior
   is intentional. *)
let check_golden ~what ~file ~gen actual =
  (* dune runtest runs in the stanza's build dir; dune exec from the
     project root. *)
  let path = if Sys.file_exists file then file else Filename.concat "test" file in
  let ic = open_in_bin path in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if not (String.equal actual expected) then begin
    let n = Stdlib.min (String.length actual) (String.length expected) in
    let rec first_diff i = if i < n && actual.[i] = expected.[i] then first_diff (i + 1) else i in
    Alcotest.failf
      "%s drifted from test/%s (first difference at byte %d; %d vs %d bytes). If intentional, \
       regenerate with `dune exec test/gen/gen_golden.exe%s`."
      what file (first_diff 0) (String.length actual) (String.length expected) gen
  end

let golden_determinism () =
  check_golden ~what:"EXP1 output" ~file:"exp1_hops.golden" ~gen:""
    (Past_experiments.Report.determinism_fixture ())

(* The EXP14 fixture pins churn, failure detection, repair and the probe
   loop end to end (see gen_golden.ml). *)
let golden_churn () =
  check_golden ~what:"EXP14 output" ~file:"exp14_churn.golden" ~gen:" -- churn"
    (Past_experiments.Report.churn_fixture ())

(* Pinned snapshot-builder behavior: the per-route dump over a
   snapshot-built overlay. Guards the builder's RNG draw order, the
   packed table layout, and routing policy together. *)
let golden_scale () =
  check_golden ~what:"EXP15 route dump" ~file:"exp15_scale.golden" ~gen:" -- scale"
    (Past_experiments.Exp_scale.route_dump ())

(* Pinned cache behavior: EXP11 at its defaults, where caches are full
   and evicting, so a change to admission, eviction order or GD-S's
   tie rule shows up here. *)
let golden_caching () =
  check_golden ~what:"EXP11 output" ~file:"exp11_caching.golden" ~gen:" -- caching"
    (Past_experiments.Report.caching_fixture ())

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || at (i + 1)) in
  at 0

(* Snapshot-vs-protocol equivalence harness. Both overlays get the
   same node ids; one is populated by the snapshot, the other joins
   every node through the real §2.2 protocol. The same lookups (same
   keys, same by-index sources) are then routed on each. *)
module Equiv = struct
  module Overlay = Past_pastry.Overlay
  module Node = Past_pastry.Node
  module Id = Past_id.Id
  module Rng = Past_stdext.Rng
  module Harness = Past_experiments.Harness

  let build ~ids ~seed kind =
    let overlay : Harness.probe Overlay.t = Overlay.create ~trace_capacity:0 ~seed () in
    List.iter (fun id -> ignore (Overlay.add_node_with_id overlay ~id)) ids;
    (match kind with
    | `Snapshot -> Overlay.build_static overlay ~n:0
    | `Dynamic -> Overlay.build_dynamic overlay ~n:0);
    overlay

  (* Route [lookups] keys drawn from a fresh rng at [lookup_seed]; the
     source of each is picked by insertion index, so both overlays
     fire the identical workload. Returns (key, dest id, hops) in
     firing order. *)
  let routes ~lookup_seed ~lookups overlay =
    let results = ref [] in
    Overlay.install_apps overlay (fun node ->
        {
          Harness.null_app with
          Node.deliver =
            (fun ~key _ info -> results := (key, Node.id node, info.Node.hops) :: !results);
        });
    let nodes = Overlay.nodes overlay in
    let rng = Rng.create lookup_seed in
    for _ = 1 to lookups do
      let key = Id.random rng ~width:Id.node_bits in
      let src = nodes.(Rng.int rng (Array.length nodes)) in
      Node.route src ~key ();
      Overlay.run overlay
    done;
    List.rev !results
end

(* With N ≤ l/2 every leaf set covers the whole ring, so a route is
   decided purely by the leaf set: both builders must agree on the
   destination AND the hop count. *)
let qcheck_snapshot_equals_dynamic =
  let open Equiv in
  QCheck.Test.make ~name:"snapshot = dynamic builder: dest and hops (N <= l/2)" ~count:20
    QCheck.(pair small_int (int_bound 1000))
    (fun (s, v) ->
      let n = 2 + (v mod 15) in
      let ids_rng = Rng.create ((s * 13) + 1) in
      let ids = List.init n (fun _ -> Id.random ids_rng ~width:Id.node_bits) in
      let lookups = 20 in
      let route kind =
        routes ~lookup_seed:(s + 17) ~lookups (build ~ids ~seed:((s * 7) + 3) kind)
      in
      let ra = route `Snapshot and rb = route `Dynamic in
      List.length ra = lookups && List.length rb = lookups
      && List.for_all2
           (fun (k1, d1, h1) (k2, d2, h2) -> Id.equal k1 k2 && Id.equal d1 d2 && h1 = h2)
           ra rb)

(* Beyond leaf-set range the hop sequences may differ (routing tables
   are proximity-sampled in one builder and protocol-fed in the
   other), but every lookup must still land on the numerically closest
   node in both — the §2.2 correctness fixed point. *)
let snapshot_dynamic_same_destinations () =
  let open Equiv in
  let ids_rng = Rng.create 91 in
  let ids = List.init 120 (fun _ -> Id.random ids_rng ~width:Id.node_bits) in
  List.iter
    (fun kind ->
      let overlay = build ~ids ~seed:57 kind in
      let rs = routes ~lookup_seed:23 ~lookups:60 overlay in
      check Alcotest.int "all delivered" 60 (List.length rs);
      List.iter
        (fun (key, dest, _) ->
          check Alcotest.bool "delivered at numerically closest" true
            (Id.equal dest (Node.id (Overlay.closest_live_node overlay key))))
        rs)
    [ `Snapshot; `Dynamic ]

let malicious_success_monotone () =
  (* EXP8 at smoke scale: success degrades as the malicious fraction
     grows, each row's randomized-retry column is cumulative (hence
     non-decreasing in the retry budget), and the rendered table keeps
     the schema `past_sim malicious` documents. *)
  let open Past_experiments.Exp_malicious in
  let r = run { n = 250; fractions = [ 0.05; 0.3 ]; lookups = 80; max_retries = 3; seed = 23 } in
  (match r.rows with
  | [ lo; hi ] ->
    check Alcotest.bool
      (Printf.sprintf "deterministic success monotone (%.2f >= %.2f)" lo.det_success
         hi.det_success)
      true
      (lo.det_success >= hi.det_success);
    check Alcotest.bool "randomized success monotone in fraction" true
      (lo.rand_success.(r.max_retries - 1) >= hi.rand_success.(r.max_retries - 1));
    List.iter
      (fun row ->
        for i = 0 to r.max_retries - 2 do
          check Alcotest.bool "retry column cumulative" true
            (row.rand_success.(i + 1) >= row.rand_success.(i))
        done)
      [ lo; hi ]
  | _ -> Alcotest.fail "two rows expected");
  let rendered = Past_stdext.Text_table.render (table r) in
  List.iter
    (fun header ->
      check Alcotest.bool (Printf.sprintf "table has %S column" header) true
        (contains rendered header))
    [ "malicious fraction"; "deterministic (any #retries)"; "randomized <=3 tries" ]

let soak_smoke () =
  (* SOAK end to end at smoke scale: the mixed workload makes progress,
     every crash's rejoin fires before the audit, and the quiesce+repair
     epilogue leaves every surviving file found and fully replicated. *)
  let open Past_experiments.Exp_churn in
  let r =
    run
      {
        soak_params with
        n = 30;
        duration = 8_000.0;
        rate = 30.0 /. 20_000.0;
        mean_downtime = 3_000.0;
        seed = 31;
      }
  in
  check Alcotest.bool "inserts attempted" true (r.inserts_attempted > 0);
  check Alcotest.bool "some inserts succeed" true (r.inserts_ok > 0);
  check Alcotest.bool "churn actually happened" true (r.crashes > 0);
  check Alcotest.int "every crash recovered" r.crashes r.recoveries;
  check Alcotest.int "all nodes revived by the epilogue" 30 r.final_live_nodes;
  check Alcotest.int "no live file lost" 0 r.lost_files;
  check Alcotest.int "every live file still available" r.files r.files_available;
  check Alcotest.int "every live file fully replicated" r.files r.files_replicated;
  check Alcotest.bool "table has the availability row" true
    (contains (Past_stdext.Text_table.render (soak_table r)) "available (>=1 live replica)")

let soak_recovery_bounded () =
  (* SOAK at its own parameters: every repairable below-k window closes
     within the recovery bound. The replica scan runs until the final
     audit, so a window opened near the churn horizon is timed when
     repair restores it, not when the run ends. *)
  let open Past_experiments.Exp_churn in
  let r = run soak_params in
  check Alcotest.bool "deficits observed" true (r.deficits > 0);
  check Alcotest.bool
    (Printf.sprintf "deficit max %.0f <= bound %.0f" r.deficit_max r.recovery_bound)
    true
    (r.deficit_max <= r.recovery_bound);
  check Alcotest.bool "recovery_ok" true r.recovery_ok

(* SOAK's reclaims go through the client that inserted the file, the
   only one whose reclaim the holders honour, so nearly every reclaim
   returns a receipt (one whose holders are all down cannot). *)
let soak_reclaims_receipted () =
  let open Past_experiments.Exp_churn in
  let r = run soak_params in
  check Alcotest.bool "reclaims issued" true (r.reclaims > 0);
  check Alcotest.bool
    (Printf.sprintf "%d of %d reclaims receipted" r.reclaims_receipted r.reclaims)
    true
    (r.reclaims_receipted >= r.reclaims - 2);
  check Alcotest.bool "reclaimed files still stored: at most the reclaimed" true
    (r.reclaimed_still_held <= r.reclaims);
  check Alcotest.bool "table has the still-stored row" true
    (contains (Past_stdext.Text_table.render (soak_table r)) "reclaimed files still stored")

let suite =
  ( "experiments",
    [
      "EXP1 golden determinism" => golden_determinism;
      "EXP1 hops grow logarithmically" => hops_grow_logarithmically;
      "EXP1 registries follow row order" => registries_follow_row_order;
      "EXP2 hop distribution" => hop_distribution_sums_to_one;
      "EXP3 state below formula" => state_below_formula;
      "EXP4 locality beats baseline" => locality_beats_baseline;
      "EXP5 nearest replica preferred" => replica_prefers_near;
      "EXP6 leaf failure threshold" => leaf_failures_threshold;
      "EXP7 maintenance costs bounded" => maintenance_costs_bounded;
      "EXP8 randomized retries win" => randomized_retries_beat_deterministic;
      "EXP8 success monotone in malicious fraction" => malicious_success_monotone;
      "EXP9/10 storage policy ordering" => storage_policies_ordered;
      "EXP11 caching reduces distance" => caching_reduces_distance;
      "EXP11 caching golden" => golden_caching;
      "EXP12 balance and diversity" => balance_and_diversity;
      "EXP5/12 row-parallel --jobs byte-identical" => replica_balance_jobs_byte_identical;
      "EXP13 quota economy" => quota_economy_conserves;
      "EXP14 churn golden" => golden_churn;
      "EXP15 scale route golden" => golden_scale;
      QCheck_alcotest.to_alcotest qcheck_snapshot_equals_dynamic;
      "EXP15 snapshot/dynamic same destinations" => snapshot_dynamic_same_destinations;
      "SOAK smoke" => soak_smoke;
      "SOAK recovery within bound" => soak_recovery_bounded;
      "SOAK reclaims reach the owner's holders" => soak_reclaims_receipted;
    ] )
