(* The PAST simulator benchmark (see README.md for the metric map).

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--size full|tiny] [--steps N] [--out DIR]

   --trace 0: set up, warm up, run the timed phase for S host seconds,
   run the correctness probes, set up a few more times for the set-up
   median, print the report and, as the last line, the end-to-end
   result object.

   --trace 1: the same untraced execution, then a traced execution of
   exactly as many steps from the same seed (spans, GC attribution,
   phase-boundary snapshots), the layer replays, the span file, and
   the per-layer result object. The two executions must agree exactly
   on every simulated outcome.

   --steps N replaces the time limit by a fixed step count (the smoke
   test's determinism check); --size tiny shrinks every workload.
   Launch through run.py, which builds this program and pins the
   environment it checks below. *)

module System = Past_core.System
module Node = Past_core.Node
module Store = Past_core.Store
module Log_store = Past_core.Log_store
module Net = Past_simnet.Net
module Registry = Past_telemetry.Registry
module Json = Past_stdext.Json
open Common

(* Every environment variable the libraries read. run.py clears them
   all and pins PAST_STORE_DIR inside the checkout: the benchmark
   passes store backend, trace capacity and engine explicitly. *)
let library_env =
  [
    "PAST_SCHED";
    "PAST_NET_JOBS";
    "PAST_JOBS";
    "PAST_STORE";
    "PAST_STORE_DIR";
    "PAST_MONITORS";
    "PAST_SCALE";
    "PAST_CHURN_DEBUG";
  ]

(* setup_s is the median of at least [setup_reps_min] set-ups, more
   while they add up to less than [setup_budget_s]. *)
let setup_reps_min = 3
let setup_reps_max = 9
let setup_budget_s = 8.0

(* Pending-set size of the churn workload's event queue, estimated as
   N x l (every node's leaf-set keep-alive traffic and timers). *)
let churn_pending = 100 * 32

(* --- one execution -------------------------------------------------- *)

type log_totals = {
  segments : int;
  disk_bytes : int;
  live_bytes : int;
  compactions : int;
  compacted_bytes : int;
}

let log_totals sys =
  Array.fold_left
    (fun acc node ->
      match Store.log_stats (Node.store node) with
      | None -> acc
      | Some (s : Log_store.stats) ->
        {
          segments = acc.segments + s.segments;
          disk_bytes = acc.disk_bytes + s.disk_bytes;
          live_bytes = acc.live_bytes + s.live_bytes;
          compactions = acc.compactions + s.compactions;
          compacted_bytes = acc.compacted_bytes + s.compacted_bytes;
        })
    { segments = 0; disk_bytes = 0; live_bytes = 0; compactions = 0; compacted_bytes = 0 }
    (System.nodes sys)

let counter_values sys =
  List.filter_map
    (fun (it : Registry.item) ->
      match it.Registry.i_value with
      | Registry.Counter_value v ->
        let labels =
          String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) it.Registry.i_labels)
        in
        Some ((if labels = "" then it.Registry.i_name else it.Registry.i_name ^ "{" ^ labels ^ "}"), v)
      | Registry.Gauge_value _ | Registry.Histogram_value _ -> None)
    (Registry.snapshot (System.registry sys))

let deltas before after =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after

let sent net kind = match Net.counters_for_kind net kind with s, _, _ -> s

(* The timed phase is cut into windows of [window_ns], and the
   calibration kernel ({!Calib}) runs every [calib_every_ns] inside it,
   its time excluded from the windows. Each window's wall time is
   divided by the window's median host slowness, so a slow stretch of
   the host is rescaled instead of reported as a slower program. *)
let window_ns = 1_000_000_000L
let calib_every_ns = 50_000_000L

type window = {
  w_s : float;  (** wall time, calibration excluded *)
  w_slow : float;  (** median host slowness in the window *)
}

(* Run [step] until [limit]. Returns the step count, the windows (a
   fixed step count keeps its last partial window), the wall time spent
   outside calibration, and the minor words the calibration kernel
   allocated (kept out of the GC-per-message figures). *)
let timed_loop step ~limit =
  let t0 = now_ns () in
  let deadline, max_steps =
    match limit with
    | `Seconds s -> (Int64.add t0 (Int64.of_float (s *. 1e9)), max_int)
    | `Steps n -> (Int64.max_int, n)
  in
  let steps = ref 0 and windows = ref [] and cal_total = ref 0L and cal_words = ref 0.0 in
  let now = ref t0 and w_start = ref t0 and w_cal = ref 0L and w_slow = ref [] in
  let w_steps = ref 0 in
  let cal_next = ref (Int64.add t0 calib_every_ns) in
  let calibrate () =
    let words = Gc.minor_words () in
    w_slow := Calib.sample () :: !w_slow;
    cal_words := !cal_words +. (Gc.minor_words () -. words);
    let t = now_ns () in
    w_cal := Int64.add !w_cal (Int64.sub t !now);
    cal_total := Int64.add !cal_total (Int64.sub t !now);
    now := t;
    cal_next := Int64.add t calib_every_ns
  in
  let close_window () =
    if !w_slow = [] then calibrate ();
    windows :=
      {
        w_s = Int64.to_float (Int64.sub (Int64.sub !now !w_start) !w_cal) /. 1e9;
        w_slow = Calib.median !w_slow;
      }
      :: !windows;
    w_start := !now;
    w_cal := 0L;
    w_slow := [];
    w_steps := 0
  in
  while !now < deadline && !steps < max_steps do
    step ();
    incr steps;
    incr w_steps;
    now := now_ns ();
    if !now >= !cal_next then calibrate ();
    if Int64.sub !now !w_start >= window_ns then close_window ()
  done;
  (match limit with
  | `Steps _ when !w_steps > 0 -> close_window ()
  | _ when !windows = [] -> close_window ()
  | _ -> ());
  ( !steps,
    List.rev !windows,
    Int64.to_float (Int64.sub (Int64.sub !now t0) !cal_total) /. 1e9,
    !cal_words )

type exec = {
  setup_s : float;  (** rescaled to the reference host speed *)
  setup_slow : float;
  timed_s : float;  (** wall, calibration excluded *)
  slow : float;  (** median host slowness over the timed phase *)
  steps : int;
  sim_s : float;  (** simulated seconds (1 time unit = 1 ms) *)
  msgs : int;  (** delivered *)
  dropped : int;
  completed : int;  (** client ops settled inside the timed phase *)
  windows : window list;
  timed : recorder;
  aux : recorder;
  checks : Workloads.check list;
  counters : (string * int) list;  (** registry counter deltas, timed phase *)
  keepalives : int;
  leaf_repair_msgs : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  heap_peak_mb : float;
  utilization : float;
  log0 : log_totals;
  log1 : log_totals;
  extra : (string * float) list;
}

let snapshot tr ~phase sys =
  if tr.Tracer.on then begin
    let net = System.net sys and l = log_totals sys in
    Tracer.snapshot tr ~phase
      (List.map (fun (k, v) -> (k, Json.Int v)) (counter_values sys)
      @ [
          ("sim_time", Json.Float (Net.now net));
          ("utilization", Json.Float (System.global_utilization sys));
          ("log.segments", Json.Int l.segments);
          ("log.disk_bytes", Json.Int l.disk_bytes);
          ("log.live_bytes", Json.Int l.live_bytes);
          ("log.compactions", Json.Int l.compactions);
          ("log.compacted_bytes", Json.Int l.compacted_bytes);
        ])
  end

(* Run [f] between two calibrations; returns its result, its wall time
   rescaled to the reference host speed, and the slowness used. *)
let calibrated f =
  let before = List.init 9 (fun _ -> Calib.sample ()) in
  let t0 = now_ns () in
  let v = f () in
  let dt = seconds_since t0 in
  let slow = Calib.median (before @ List.init 9 (fun _ -> Calib.sample ())) in
  (v, dt /. slow, slow)

let execute tr (p : Workloads.prepared) ~limit =
  let aux = recorder () and timed = recorder () in
  Gc.compact ();
  let inst, setup_s, setup_slow =
    calibrated (fun () -> Tracer.phase tr "setup" (fun () -> p.Workloads.setup tr ~aux))
  in
  let sys = inst.Workloads.sys in
  let net = System.net sys in
  Tracer.phase tr "warmup" (fun () ->
      for _ = 1 to p.Workloads.warmup_steps do
        inst.Workloads.step aux
      done);
  snapshot tr ~phase:"setup" sys;
  let c0 = counter_values sys and l0 = log_totals sys in
  let ka0 = sent net "keepalive"
  and lr0 = sent net "leaf_request" + sent net "leaf_reply"
  and sim0 = Net.now net
  and del0 = Net.messages_delivered net
  and drop0 = Net.messages_dropped net in
  let gc0 = Gc.quick_stat () in
  let steps, windows, timed_s, cal_words =
    Tracer.phase tr "timed" (fun () -> timed_loop (fun () -> inst.Workloads.step timed) ~limit)
  in
  let gc1 = Gc.quick_stat () in
  let completed = timed.completed in
  let counters = deltas c0 (counter_values sys) in
  let result =
    {
      setup_s;
      setup_slow;
      timed_s;
      slow = Calib.median (List.map (fun w -> w.w_slow) windows);
      steps;
      sim_s = (Net.now net -. sim0) /. 1000.0;
      msgs = Net.messages_delivered net - del0;
      dropped = Net.messages_dropped net - drop0;
      completed;
      windows;
      timed;
      aux;
      checks = [];
      counters;
      keepalives = sent net "keepalive" - ka0;
      leaf_repair_msgs = sent net "leaf_request" + sent net "leaf_reply" - lr0;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words -. cal_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
      heap_peak_mb = 0.0;
      utilization = System.global_utilization sys;
      log0 = l0;
      log1 = log_totals sys;
      extra = [];
    }
  in
  snapshot tr ~phase:"timed" sys;
  let checks = Tracer.phase tr "post" (fun () -> inst.Workloads.finish ~timed) in
  snapshot tr ~phase:"post" sys;
  let extra = inst.Workloads.extra () in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  System.shutdown sys;
  { result with checks; extra; heap_peak_mb }

(* Set-up alone, for the set-up median (rescaled seconds). *)
let setup_only (p : Workloads.prepared) =
  Gc.compact ();
  let inst, dt, _ =
    calibrated (fun () -> p.Workloads.setup Tracer.off ~aux:(recorder ()))
  in
  System.shutdown inst.Workloads.sys;
  dt

(* --- metrics -------------------------------------------------------- *)

type metric = { name : string; value : float option; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value = Some value; unit_; samples }
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let counter e name = fi (Option.value ~default:0 (List.assoc_opt name e.counters))
let extra e name = Option.value ~default:0.0 (List.assoc_opt name e.extra)

let median = Calib.median

(* Timings: a median, and a p99 only once the op type has >= 1000
   samples (ten samples beyond the percentile); rescaled by the timed
   phase's median host slowness. *)
let latency_metrics e =
  List.concat_map
    (fun kind ->
      let s = e.timed.lat.(kind_index kind) in
      let n = Samples.count s in
      let m q label =
        {
          name = Printf.sprintf "%s_%s_us" (kind_name kind) label;
          value = (if n >= (if q > 0.5 then 1000 else 1) then Some (Samples.percentile s q /. 1e3 /. e.slow) else None);
          unit_ = "us";
          samples = n;
        }
      in
      [ m 0.5 "p50"; m 0.99 "p99" ])
    kinds

(* Host seconds of the timed phase at the reference speed: each
   window's wall time divided by that window's slowness. *)
let reference_s e = List.fold_left (fun acc w -> acc +. (w.w_s /. w.w_slow)) 0.0 e.windows

let end_to_end e ~setup_s =
  [ metric "setup_s" "s" (median setup_s) ~samples:(List.length setup_s) ]
  @ [
      metric "ops_per_s" "1/s" ~samples:e.completed
        (fi e.completed /. reference_s e);
    ]
  @ latency_metrics e
  @ [
      metric "sim_s_per_host_s" "sim_s/s"
        (e.sim_s /. reference_s e);
      metric "msgs_per_s" "1/s" ~samples:e.msgs
        (fi e.msgs /. reference_s e);
      metric "heap_peak_mb" "MB" e.heap_peak_mb;
      metric "op_fail_ratio" "ratio"
        (ratio (fi (failed e.timed)) (fi (attempted e.timed)))
        ~samples:(attempted e.timed);
    ]

(* The end-to-end metrics BENCHMARK.json gates on: present on every
   workload and steady across seeds. The rest stay in the report. *)
let gated =
  [ "setup_s"; "ops_per_s"; "sim_s_per_host_s"; "msgs_per_s"; "heap_peak_mb" ]

(* Host times are rescaled like the end-to-end ones: timed-phase spans
   by the traced timed phase's slowness, set-up spans by its set-up's,
   replays by the slowness measured around them. *)
let per_layer tr ~gen_s ~(base : exec) ~(traced : exec) ~replay_slow ~route_us ~store_us
    ~wheel_ns =
  let e = base in
  let timed_scale v = v /. traced.slow and setup_scale v = v /. traced.setup_slow in
  let replay_scale v = v /. replay_slow in
  let put_us, remove_us = store_us in
  let kind_issued k = fi e.timed.issued.(kind_index k) in
  let run_self_ns =
    List.fold_left
      (fun acc name -> acc +. Tracer.self_total_ns tr ("timed/" ^ name))
      0.0
      [ "system.run"; "client.lookup_sync"; "client.insert_sync"; "client.reclaim_sync" ]
  in
  [
    metric "gc.minor_words_per_msg" "words/msg" (ratio e.minor_words (fi e.msgs));
    metric "gc.promoted_words_per_msg" "words/msg" (ratio e.promoted_words (fi e.msgs));
    metric "gc.pause_share" "ratio" (ratio (Tracer.gc_inside_s tr "timed/timed") traced.timed_s);
    metric "gc.minor_collections" "count" (fi e.minor_gcs);
    metric "gc.major_collections" "count" (fi e.major_gcs);
    metric "simnet.msgs_per_op" "msgs/op" (ratio (fi e.msgs) (fi e.completed));
    metric "simnet.run_ns_per_msg" "ns/msg" (timed_scale (ratio run_self_ns (fi traced.msgs)));
    metric "simnet.sent.keepalive" "count" (fi e.keepalives);
    metric "simnet.sent.leaf_repair" "count" (fi e.leaf_repair_msgs);
    metric "simnet.msgs_dropped" "count" (fi e.dropped);
    metric "stdext.wheel_pop_push_ns" "ns" (replay_scale wheel_ns);
    metric "pastry.route_us" "us" (replay_scale route_us);
    metric "pastry.hops_per_lookup" "hops" (ratio (fi e.timed.found_hops) (fi e.timed.found));
    metric "pastry.build_s" "s" (setup_scale (Tracer.total_s tr "setup/system.create"));
    metric "pastry.control_per_sim_s" "msgs/sim_s" (ratio (counter e "pastry.control_sent") e.sim_s);
    metric "pastry.leaf_repairs" "count" (counter e "pastry.leaf_repairs");
    metric "pastry.rt_repairs" "count" (counter e "pastry.rt_repairs");
    metric "past.client.lookup_self_us" "us" (timed_scale (Tracer.self_p50_us tr "timed/client.lookup_sync"));
    metric "past.client.insert_self_us" "us" (timed_scale (Tracer.self_p50_us tr "timed/client.insert_sync"));
    metric "past.client.reclaim_self_us" "us" (timed_scale (Tracer.self_p50_us tr "timed/client.reclaim_sync"));
    metric "past.cache.hit_ratio" "ratio"
      (ratio (counter e "past.cache.hits") (counter e "past.cache.hits" +. counter e "past.cache.misses"));
    metric "past.insert.reject_ratio" "ratio"
      (ratio (counter e "past.insert.rejected")
         (counter e "past.insert.accepted" +. counter e "past.insert.rejected"));
    metric "past.divert.success_ratio" "ratio"
      (ratio (counter e "past.divert.succeeded") (counter e "past.divert.attempted"));
    metric "past.client.insert_retries_per_insert" "ratio"
      (ratio (counter e "past.client.insert_retries") (kind_issued Insert));
    metric "past.rereplicate_per_crash" "msgs/crash"
      (ratio (counter e "past.rereplicate.sent") (extra e "kills"));
    metric "past.client.lookup_retries" "count" (counter e "past.client.lookup_retries");
    metric "past.system.kill_us" "us" (timed_scale (Tracer.mean_us tr "timed/system.kill_node"));
    metric "past.system.revive_us" "us" (timed_scale (Tracer.mean_us tr "timed/system.revive_node"));
    metric "past.utilization" "ratio" e.utilization;
    metric "past.preload_s" "s" (setup_scale (Tracer.total_s tr "setup/bench.preload"));
    metric "store.put_us" "us" (replay_scale put_us);
    metric "store.remove_us" "us" (replay_scale remove_us);
    metric "log.compactions" "count" (fi (e.log1.compactions - e.log0.compactions));
    metric "log.rewrite_ratio" "ratio" (ratio (fi e.log1.compacted_bytes) (fi e.log1.live_bytes));
    metric "log.space_amp" "ratio" (ratio (fi e.log1.disk_bytes) (fi e.log1.live_bytes));
    metric "log.segments" "count" (fi e.log1.segments);
    metric "trace.overhead_ratio" "ratio" (ratio (reference_s traced) (reference_s e));
    metric "bench.gen_s" "s" gen_s;
  ]

(* --- output --------------------------------------------------------- *)

let print_metrics title metrics =
  Printf.printf "== %s ==\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-40s %16s %-10s samples=%d\n" m.name
        (match m.value with Some v -> Printf.sprintf "%.6g" v | None -> "n/a")
        m.unit_ m.samples)
    metrics

let print_checks e ~extra_checks =
  let checks =
    e.checks
    @ extra_checks
    @ [
        {
          Workloads.check = "every outcome met its guarantee";
          ok = e.timed.wrong + e.aux.wrong = 0;
          detail =
            (match List.rev_append e.timed.violations (List.rev e.aux.violations) with
            | [] -> "no violation"
            | v :: _ -> Printf.sprintf "%d violation(s), first: %s" (e.timed.wrong + e.aux.wrong) v);
        };
      ]
  in
  print_endline "== correctness checks ==";
  List.iter
    (fun (c : Workloads.check) ->
      Printf.printf "  [%s] %s: %s\n" (if c.ok then "ok" else "FAIL") c.check c.detail)
    checks;
  List.for_all (fun (c : Workloads.check) -> c.ok) checks

let result_line ~correct ~attempted ~failed metrics =
  let obj =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.filter_map
               (fun m ->
                 Option.map
                   (fun v ->
                     (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit_) ]))
                   m.value)
               metrics) );
      ]
  in
  print_endline (Json.to_string obj)

let print_exec_summary label e =
  Printf.printf
    "== %s: %d steps in %.3f s host, %.3f sim s, %d msgs delivered, %d ops attempted, %d \
     settled in phase, %d refused/timed out, digest %016x ==\n"
    label e.steps e.timed_s e.sim_s e.msgs (attempted e.timed) e.completed (failed e.timed)
    e.timed.digest;
  Printf.printf "  host slowness (x reference speed): set-up %.3f, timed phase %.3f\n"
    e.setup_slow e.slow;
  Printf.printf "  slowness per %gs window: %s\n"
    (Int64.to_float window_ns /. 1e9)
    (String.concat " " (List.map (fun w -> Printf.sprintf "%.2f" w.w_slow) e.windows));
  List.iter (fun (k, v) -> Printf.printf "  %s = %g\n" k v) e.extra

(* --- main ----------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref Full and steps = ref 0 and out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME lookup_zipf | turnover_log | churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Tiny else Full),
        " workload size" );
      ("--steps", Arg.Set_int steps, "N fixed step count instead of --seconds");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its span file");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pastbench: " ^ s); exit 2) fmt in
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  List.iter
    (fun v ->
      match (v, Sys.getenv_opt v) with
      | "PAST_STORE_DIR", None -> die "PAST_STORE_DIR must be pinned (launch through run.py)"
      | "PAST_STORE_DIR", Some _ | _, None -> ()
      | _, Some x -> die "%s=%s is set; the benchmark runs with the library environment cleared" v x)
    library_env;
  if !trace = 1 && !out = "" then die "--trace 1 needs --out";
  let limit = if !steps > 0 then `Steps !steps else `Seconds !seconds in
  Printf.printf "== pastbench %s seed=%d trace=%d size=%s limit=%s ==\n" w.Workloads.name !seed !trace
    (if !size = Full then "full" else "tiny")
    (match limit with `Steps n -> Printf.sprintf "%d steps" n | `Seconds s -> Printf.sprintf "%gs" s);
  let provenance =
    [
      ("rev", Option.value ~default:"unknown" (Sys.getenv_opt "PASTBENCH_REV"));
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("OCAMLRUNPARAM", Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
      ("seed", string_of_int !seed);
      ("workload", w.Workloads.name);
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "  provenance %s = %s\n" k v) provenance;
  let p, gen_s, _ = calibrated (fun () -> w.Workloads.prepare !size ~seed:!seed) in
  let base = execute Tracer.off p ~limit in
  print_exec_summary "timed phase" base;
  if !trace = 0 then begin
    let rec more acc =
      let n = List.length acc in
      if n >= setup_reps_max
         || (n >= setup_reps_min && List.fold_left ( +. ) 0.0 acc >= setup_budget_s)
      then acc
      else more (setup_only p :: acc)
    in
    let setup_s = more [ base.setup_s ] in
    let metrics = end_to_end base ~setup_s in
    print_metrics "end-to-end metrics (host wall time at reference speed)" metrics;
    let correct = print_checks base ~extra_checks:[] in
    result_line ~correct ~attempted:(attempted base.timed)
      ~failed:(base.timed.wrong + base.aux.wrong)
      (List.filter (fun m -> List.mem m.name gated) metrics)
  end
  else begin
    let tr = Tracer.create () in
    let traced = execute tr p ~limit:(`Steps base.steps) in
    print_exec_summary "traced timed phase" traced;
    let replay_seed = !seed + 17 in
    let (route_us, store_us, wheel_ns), _, replay_slow =
      calibrated @@ fun () ->
      Tracer.phase tr "replay" (fun () ->
          let keys = Array.of_seq (Queue.to_seq traced.timed.lookup_keys) in
          let route_us =
            Replay.route tr ~n:p.Workloads.n ?topology:(p.Workloads.topology ()) ~seed:replay_seed keys
          in
          let store_us = Replay.store tr ~backend:p.Workloads.backend ~seed:replay_seed p.Workloads.sizes in
          let wheel_ns =
            Replay.wheel tr ~pending:churn_pending
              ~ops:(if !size = Full then 500_000 else 20_000)
              ~seed:replay_seed
          in
          (route_us, store_us, wheel_ns))
    in
    let metrics = per_layer tr ~gen_s ~base ~traced ~replay_slow ~route_us ~store_us ~wheel_ns in
    print_metrics "per-layer metrics (traced run)" metrics;
    (* The traced execution replays the untraced one step for step:
       every simulated outcome and count must repeat exactly. *)
    let same what a b =
      {
        Workloads.check = "traced run repeats the untraced one: " ^ what;
        ok = a = b;
        detail = (if a = b then "identical" else Printf.sprintf "%s vs %s" a b);
      }
    in
    let repeat_checks =
      [
        same "outcome digest"
          (Printf.sprintf "%016x/%016x" base.timed.digest base.aux.digest)
          (Printf.sprintf "%016x/%016x" traced.timed.digest traced.aux.digest);
        same "messages delivered" (string_of_int base.msgs) (string_of_int traced.msgs);
        same "sim time" (Printf.sprintf "%h" base.sim_s) (Printf.sprintf "%h" traced.sim_s);
        same "registry counters"
          (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) base.counters))
          (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) traced.counters));
      ]
    in
    let correct = print_checks traced ~extra_checks:repeat_checks in
    let correct = correct && base.timed.wrong + base.aux.wrong = 0 in
    let header =
      [
        ("workload", Json.String w.Workloads.name);
        ("seed", Json.Int !seed);
        ("steps", Json.Int base.steps);
        ("provenance", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) provenance));
        ( "per_layer",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [
                       ("value", match m.value with Some v -> Json.Float v | None -> Json.Null);
                       ("unit", Json.String m.unit_);
                     ] ))
               metrics) );
      ]
    in
    let file = Filename.concat !out (Printf.sprintf "spans-%s-%d.json" w.Workloads.name !seed) in
    let oc = open_out file in
    output_string oc (Json.to_string (Tracer.to_json tr ~header));
    output_char oc '\n';
    close_out oc;
    Printf.printf "== span file %s (%d spans, %d GC phases, %d lost ring events) ==\n" file
      tr.Tracer.next_id tr.Tracer.gc_phases tr.Tracer.lost_events;
    result_line ~correct ~attempted:(attempted traced.timed)
      ~failed:(traced.timed.wrong + traced.aux.wrong)
      metrics
  end
