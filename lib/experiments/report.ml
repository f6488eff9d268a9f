(* Run every experiment and print the paper-shaped tables — the entry
   point behind `past_sim all` and `past_sim <experiment>`.

   [~scale] (past_sim --scale, default 1.0) multiplies the sampling
   effort (lookup counts, trials) of each experiment: 0.2 gives a fast
   smoke pass, 1.0 the EXPERIMENTS.md numbers. Structural parameters
   (network sizes, k, thresholds) are never scaled — they define the
   experiment.

   Each experiment produces named tables; [run_all]/[run_named] render
   them as text (the default) or as machine-readable JSON, and can
   append reconstructed route traces when the experiment kept its
   telemetry registry around. *)

module Text_table = Past_stdext.Text_table
module Json = Past_stdext.Json
module Domain_pool = Past_stdext.Domain_pool
module Registry = Past_telemetry.Registry
module Trace = Past_telemetry.Trace
module System = Past_core.System
module Client = Past_core.Client

let s_int ~scale ?(min_value = 10) base =
  Stdlib.max min_value (int_of_float (float_of_int base *. scale))

type output = {
  tables : (string * Text_table.t) list;  (** (title, table) in print order *)
  trace_registry : Registry.t option;
      (** registry whose tracer holds this run's route traces, when the
          experiment retains one *)
}

let tables ts = { tables = ts; trace_registry = None }

let run_hops ~setup ~scale =
  let p = Exp_hops.default_params in
  let r = Exp_hops.run ~setup { p with Exp_hops.lookups = s_int ~scale p.Exp_hops.lookups } in
  let d = Exp_hops.default_dist_params in
  let dist =
    Exp_hops.run_distribution ~setup { d with Exp_hops.dlookups = s_int ~scale d.Exp_hops.dlookups }
  in
  {
    tables =
      [
        ( "EXP1: average route length vs network size (paper: < ceil(log16 N))",
          Exp_hops.table r );
        ("EXP2: hop-count distribution", Exp_hops.dist_table dist);
      ];
    trace_registry =
      (match r.Exp_hops.registries with (_, reg) :: _ -> Some reg | [] -> None);
  }

let run_state ~setup ~scale:_ =
  tables
    [
      ( "EXP3: per-node state vs formula (2^b-1)*ceil(log_2^b N) + 2l",
        Exp_state.table (Exp_state.run ~setup Exp_state.default_params) );
    ]

let run_locality ~setup ~scale =
  let p = Exp_locality.default_params in
  tables
    [
      ( "EXP4: locality — route distance vs direct distance (paper: ~1.5x with locality)",
        Exp_locality.table
          (Exp_locality.run ~setup
             { p with Exp_locality.lookups = s_int ~scale p.Exp_locality.lookups }) );
    ]

let run_replica ~setup ~scale =
  let p = Exp_replica.default_params in
  tables
    [
      ( "EXP5: which of the k=5 replicas serves a lookup",
        Exp_replica.table
          (Exp_replica.run ~setup
             { p with Exp_replica.lookups = s_int ~scale p.Exp_replica.lookups }) );
    ]

let run_failures ~setup ~scale =
  let p = Exp_failures.default_params in
  let r =
    Exp_failures.run ~setup
      {
        p with
        Exp_failures.trials = s_int ~scale ~min_value:2 p.Exp_failures.trials;
        lookups_per_trial = s_int ~scale p.Exp_failures.lookups_per_trial;
      }
  in
  tables
    [
      ( Printf.sprintf
          "EXP6: delivery under m simultaneous adjacent failures (l=%d, guarantee holds for m \
           < %d)"
          p.Exp_failures.leaf_set_size r.Exp_failures.half,
        Exp_failures.table r );
    ]

let run_maintenance ~setup ~scale =
  let p = Exp_maintenance.default_params in
  tables
    [
      ( "EXP7: join and failure-repair message cost (paper: O(log_2^b N))",
        Exp_maintenance.table
          (Exp_maintenance.run ~setup
             {
               p with
               Exp_maintenance.join_samples =
                 s_int ~scale ~min_value:5 p.Exp_maintenance.join_samples;
               fail_samples = s_int ~scale ~min_value:2 p.Exp_maintenance.fail_samples;
             }) );
    ]

let run_malicious ~setup ~scale =
  let p = Exp_malicious.default_params in
  tables
    [
      ( "EXP8: routing around malicious droppers (randomized + retries vs deterministic)",
        Exp_malicious.table
          (Exp_malicious.run ~setup
             { p with Exp_malicious.lookups = s_int ~scale p.Exp_malicious.lookups })
      );
    ]

let run_storage ~setup ~scale:_ =
  tables
    [
      ( "EXP9/EXP10: storage utilization & insert rejection (paper: >95% util, <5% rejects, \
         large files rejected first)",
        Exp_storage.table (Exp_storage.run ~setup Exp_storage.default_params) );
    ]

let run_caching ~setup ~scale =
  let p = Exp_caching.default_params in
  let r =
    Exp_caching.run ~setup { p with Exp_caching.lookups = s_int ~scale p.Exp_caching.lookups }
  in
  tables
    [
      ( "EXP11: caching popular files (paper: caching cuts fetch distance, balances query \
         load)",
        Exp_caching.table r );
      ( "EXP11b: cache hit-rate trajectory (cumulative, sampled every 1/12 of the lookups)",
        Exp_caching.trajectory_table r );
    ]

let run_balance ~setup ~scale =
  let p = Exp_balance.default_params in
  tables
    [
      ( "EXP12: per-node file balance and replica diversity",
        Exp_balance.table
          (Exp_balance.run ~setup
             {
               p with
               Exp_balance.diversity_samples = s_int ~scale p.Exp_balance.diversity_samples;
             })
      );
    ]

let run_quota ~setup ~scale:_ =
  tables
    [
      ( "EXP13: smartcard quota economy (debit on insert, credit on reclaim)",
        Exp_quota.table (Exp_quota.run ~setup Exp_quota.default_params) );
    ]

let run_ablation ~setup ~scale:_ =
  tables
    [
      ( "ABLATION A: digit width b (N=2000)",
        Exp_ablation.b_table (Exp_ablation.run_b_sweep ~setup ~n:2000 ~lookups:500 ~seed:61) );
      ( "ABLATION B: leaf-set size l vs adjacent-failure threshold (N=1500)",
        Exp_ablation.l_table
          (Exp_ablation.run_l_sweep ~setup ~n:1500 ~trials:6 ~lookups_per_trial:20 ~seed:62) );
      ( "ABLATION C: admission threshold t_pri (full policy)",
        Exp_ablation.t_table (Exp_ablation.run_t_sweep ~setup ~seed:63) );
      ( "ABLATION D: randomized-routing bias (N=1000)",
        Exp_ablation.bias_table
          (Exp_ablation.run_bias_sweep ~setup ~n:1000 ~lookups:200 ~fraction:0.2 ~retries:3
             ~seed:64)
      );
    ]

let run_soak ~setup ~scale:_ =
  tables
    [
      ( "SOAK: mixed Poisson workload under continuous churn (availability + self-healing)",
        Exp_churn.soak_table (Exp_churn.run ~setup Exp_churn.soak_params) );
    ]

(* EXP14's two tables, shared by `past_sim all` and `past_sim churn`. *)
let churn_output (r : Exp_churn.result) =
  {
    tables =
      [
        ( "EXP14: invariants under sustained churn (C5 repair cost, C6 availability)",
          Exp_churn.table r );
        ( "EXP14b: churn time-series (per-window repair traffic, live nodes, probe latency)",
          Exp_churn.series_table r );
      ];
    trace_registry = Some r.Exp_churn.registry;
  }

let run_churn ~setup ~scale =
  let p = Exp_churn.default_params in
  (* Churn scales its horizon, not its sampling: the invariants are
     about behaviour over time. Floor it at one full fault cycle so a
     smoke pass still exercises crash, detection and repair. *)
  let duration = Float.max 60_000.0 (p.Exp_churn.duration *. scale) in
  churn_output (Exp_churn.run ~setup { p with Exp_churn.duration })

let all : (string * (setup:Setup.t -> scale:float -> output)) list =
  [
    ("hops", run_hops);
    ("state", run_state);
    ("locality", run_locality);
    ("replica", run_replica);
    ("leaffail", run_failures);
    ("maintenance", run_maintenance);
    ("malicious", run_malicious);
    ("storage", run_storage);
    ("caching", run_caching);
    ("balance", run_balance);
    ("quota", run_quota);
    ("ablation", run_ablation);
    ("soak", run_soak);
    ("churn", run_churn);
  ]

(* --- rendering --------------------------------------------------------- *)

let first_routes reg count =
  Trace.routes (Registry.tracer reg) |> List.filteri (fun i _ -> i < count)

let print_traces ~count reg =
  match first_routes reg count with
  | [] -> print_endline "(no complete route traces retained in the trace ring)"
  | routes ->
    Printf.printf "\nFirst %d reconstructed route trace(s):\n" (List.length routes);
    List.iter (fun r -> print_endline (Trace.route_to_string r)) routes

let json_of_output ~trace name (out : output) =
  let table_objs =
    List.map
      (fun (title, tbl) ->
        Json.Obj [ ("title", Json.String title); ("rows", Text_table.to_json tbl) ])
      out.tables
  in
  let fields =
    [ ("experiment", Json.String name); ("tables", Json.List table_objs) ]
  in
  let fields =
    match out.trace_registry with
    | Some reg when trace > 0 ->
      fields
      @ [
          ( "traces",
            Json.List
              (List.map (fun r -> Json.String (Trace.route_to_string r))
                 (first_routes reg trace)) );
        ]
    | _ -> fields
  in
  Json.Obj fields

let print_output ~trace (out : output) =
  List.iter (fun (title, tbl) -> Text_table.print ~title tbl) out.tables;
  if trace > 0 then
    match out.trace_registry with
    | Some reg -> print_traces ~count:trace reg
    | None -> print_endline "(this experiment does not retain route traces)"

(* One experiment's output on stdout: its tables as text, or as one
   JSON object with [json]. *)
let emit ~json ~trace name out =
  if json then print_endline (Json.to_string ~indent:true (json_of_output ~trace name out))
  else print_output ~trace out

(* The full suite as one JSON string, each experiment's output
   obtained through [run name experiment]. *)
let suite_json ~trace run =
  Json.to_string ~indent:true
    (Json.List (List.map (fun (name, exp) -> json_of_output ~trace name (run name exp)) all))

(* What `past_sim all --json` prints, minus its timing. The --jobs
   determinism test compares it: every experiment merges its
   pool-mapped rows in submission order, so this string is
   byte-identical for any pool width at fixed scale and seeds. *)
let all_json ?(trace = 0) ?(setup = Setup.sequential ()) ~scale () =
  suite_json ~trace (fun _ run -> run ~setup ~scale)

let wall_clock_table ~jobs timings =
  let t = Text_table.create [ "experiment"; "wall clock" ] in
  List.iter (fun (name, dt) -> Text_table.add_rowf t "%s|%.1fs" name dt) timings;
  Text_table.add_rowf t "total (jobs=%d)|%.1fs" jobs
    (List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 timings);
  t

(* Runs every experiment, then prints a wall-clock table of them. The
   table goes to stderr in JSON mode to keep stdout byte-comparable
   across --jobs values. *)
let run_all ?(json = false) ?(trace = 0) ~(setup : Setup.t) ~scale () =
  let timings = ref [] in
  let timed name run =
    let t0 = Unix.gettimeofday () in
    let out = run ~setup ~scale in
    let dt = Unix.gettimeofday () -. t0 in
    timings := (name, dt) :: !timings;
    (out, dt)
  in
  if json then print_endline (suite_json ~trace (fun name run -> fst (timed name run)))
  else
    List.iter
      (fun (name, run) ->
        Printf.printf "\n[%s]\n%!" name;
        let out, dt = timed name run in
        print_output ~trace out;
        Printf.printf "(%s finished in %.1fs)\n%!" name dt)
      all;
  let timings = List.rev !timings in
  let table = wall_clock_table ~jobs:(Domain_pool.jobs setup.pool) timings in
  if json then output_string stderr ("\nwall clock per experiment\n" ^ Text_table.render table)
  else Text_table.print ~title:"wall clock per experiment" table

let run_named ?(json = false) ?(trace = 0) ~setup ~scale name =
  match List.assoc_opt name all with
  | Some run -> emit ~json ~trace name (run ~setup ~scale)
  | None ->
    Printf.eprintf "unknown experiment %S; available: %s\n" name
      (String.concat ", " (List.map fst all));
    exit 2

(* --- demo workloads ------------------------------------------------------ *)

(* Write [reg]'s trace ring as Chrome trace-event JSON (open in
   Perfetto / chrome://tracing) and report its counts on stderr. *)
let write_trace ~out reg =
  let tracer = Registry.tracer reg in
  let oc = open_out out in
  output_string oc (Json.to_string ~indent:true (Trace.chrome_json tracer));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s: %d trace event(s), %d span(s), %d route(s)%s\n" out
    (Trace.total_recorded tracer)
    (List.length (Trace.spans tracer))
    (List.length (Trace.routes tracer))
    (match Trace.dropped_total tracer with
    | 0 -> ""
    | d -> Printf.sprintf " (%d dropped: enlarge the ring)" d)

(* The demo behind `metrics` and `trace`: 30 client inserts into a
   40-node system. Returns the system, its client and the stored
   fileIds, newest first. *)
let demo_inserts ~(setup : Setup.t) =
  let sys =
    Setup.system setup ~seed:11 ~n:40 ~trace_capacity:65_536 ~node_capacity:(fun _ _ -> 120_000) ()
  in
  let client = System.new_client sys ~quota:2_000_000 () in
  let stored = ref [] in
  for i = 1 to 30 do
    let data = String.make (500 + (137 * i mod 3_000)) 'x' in
    match Client.insert_sync client ~name:(Printf.sprintf "file-%d" i) ~data ~k:3 () with
    | Client.Inserted { file_id; _ } -> stored := file_id :: !stored
    | Client.Insert_failed _ -> ()
  done;
  (sys, client, !stored)

(* The demo's causal trace, for `past_sim trace`: after the inserts, a
   mid-run crash so the export contains repair spans, then lookups (the
   doubled pass hits caches) and a reclaim. *)
let trace_export ~setup ~out () =
  let sys, client, stored = demo_inserts ~setup in
  System.start_maintenance sys;
  let nodes = System.nodes sys in
  if Array.length nodes > 1 then
    System.kill_node sys nodes.(Array.length nodes / 2);
  System.run ~until:(Past_simnet.Net.now (System.net sys) +. 30_000.0) sys;
  List.iter (fun file_id -> ignore (Client.lookup_sync client ~file_id ())) (stored @ stored);
  (match stored with
  | file_id :: _ -> ignore (Client.reclaim_sync client ~file_id ())
  | [] -> ());
  write_trace ~out (System.registry sys);
  System.shutdown sys

(* The demo's registry snapshot, for `past_sim metrics`: after the
   inserts, every file is looked up twice. The snapshot exercises every
   layer: network counters and latency histogram, routing-stage
   counters, and the storage layer's accept/reject/cache metrics. *)
let metrics ?(json = false) ?(trace = 0) ~setup () =
  let sys, client, stored = demo_inserts ~setup in
  List.iter (fun file_id -> ignore (Client.lookup_sync client ~file_id ())) (stored @ stored);
  let reg = System.registry sys in
  if json then print_endline (Json.to_string ~indent:true (Registry.to_json reg))
  else begin
    Registry.print
      ~title:
        (Printf.sprintf "telemetry snapshot (demo workload: %d nodes, 30 inserts, %d lookups)"
           (Array.length (System.nodes sys))
           (2 * List.length stored))
      reg;
    if trace > 0 then print_traces ~count:trace reg
  end;
  System.shutdown sys
