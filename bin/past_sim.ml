(* Command-line driver for the PAST reproduction experiments.

   `past_sim all` regenerates every table; `past_sim <name>` runs one
   experiment. `--scale` trades sampling effort for time (structural
   parameters are never scaled). `--json` emits the tables as JSON
   instead of text; `--trace N` appends the first N reconstructed route
   traces when the experiment records them. `--jobs N` (default: the
   runtime's recommended domain count) sizes the worker-domain pool the
   per-row experiment loops fan out over — results are merged in
   submission order, so output is byte-identical for any N. `past_sim
   metrics` runs a small end-to-end workload and dumps the telemetry
   registry snapshot.

   Run configuration is read here only: `--scale`, `--jobs`, `--store`
   and `--monitors` fall back to PAST_SCALE, PAST_JOBS, PAST_STORE and
   PAST_MONITORS through the flag's own converter. The libraries keep
   no defaults of their own: each command builds one [Setup.t] (the
   pool, the store backend and the monitor sink) and hands it to what
   it runs. *)

open Cmdliner
module Domain_pool = Past_stdext.Domain_pool
module Monitor = Past_telemetry.Monitor
module Store = Past_core.Store
module Report = Past_experiments.Report
module Setup = Past_experiments.Setup

let experiment_names = List.map fst Report.all

(* [conv] restricted to the values [ok] admits; a rejected value is a
   usage error that names it. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ | Error _ -> Error (Printf.sprintf "%S: expected %s" s expected)
  in
  Arg.conv' (parse, Arg.conv_printer conv)

let positive_float =
  checked Arg.float ~expected:"a positive number" (fun f -> f > 0.0 && Float.is_finite f)

let positive_int = checked Arg.int ~expected:"a positive integer" (fun j -> j >= 1)
let non_negative_int = checked Arg.int ~expected:"a non-negative integer" (fun n -> n >= 0)

(* A positive integer no wider than the domain pool can be. *)
let jobs_count =
  let parse s =
    match Arg.conv_parser positive_int s with
    | Ok j when j > Domain_pool.max_jobs ->
      Error (`Msg (Printf.sprintf "%S: expected an integer <= %d" s Domain_pool.max_jobs))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer positive_int)

let fraction = checked Arg.float ~expected:"a fraction in [0, 1]" (fun f -> f >= 0.0 && f <= 1.0)
let env = Cmd.Env.info

let scale_arg =
  let doc =
    "Sampling-effort multiplier (lookup counts, trials). 0.2 is a quick smoke pass, 1.0 the \
     EXPERIMENTS.md numbers."
  in
  Arg.(
    value & opt positive_float 1.0
    & info [ "s"; "scale" ] ~env:(env "PAST_SCALE") ~docv:"FACTOR" ~doc)

let json_arg =
  let doc = "Emit results as JSON (one object per experiment, with its tables) on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_arg =
  let doc =
    "Print the first $(docv) reconstructed route traces (hop-by-hop, with the routing stage \
     that chose each hop). Only experiments that retain their telemetry registry produce \
     traces."
  in
  Arg.(value & opt non_negative_int 0 & info [ "trace" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Size of the worker-domain pool the experiment loops fan out over, at most 64. Results \
     merge in submission order, so the output is byte-identical for any $(docv)."
  in
  Arg.(
    value
    & opt (some jobs_count) None
    & info [ "j"; "jobs" ] ~env:(env "PAST_JOBS") ~docv:"N"
        ~absent:"the runtime's recommended domain count (capped at 64)" ~doc)

let store_arg =
  let doc =
    "Replica store backend of every node: $(b,mem) (in-memory table) or $(b,log) (disk-backed \
     log store, segments under PAST_STORE_DIR or the system temp dir). Results are identical \
     on both."
  in
  let backends = [ ("mem", Store.Mem); ("log", Store.Log { dir = None; segment_target = None }) ] in
  Arg.(
    value & opt (enum backends) Store.Mem
    & info [ "store" ] ~env:(env "PAST_STORE") ~docv:"BACKEND" ~doc)

let monitors_arg =
  let doc =
    "Activate the online invariant monitors (leaf-set symmetry, replica counts, hop bound, \
     storage-quota conservation) in every system the run creates; exit 1 if any monitor \
     records a violation."
  in
  Arg.(value & flag & info [ "monitors" ] ~env:(env "PAST_MONITORS") ~doc)

(* A command's setup from its flags: a pool [jobs] wide (1 when the
   command fans nothing out), every node's store backend and, with
   --monitors, the sink every system's monitors report to. *)
let setup ?(jobs = 1) ?(store = Store.Mem) monitors =
  {
    Setup.pool = Domain_pool.create ~jobs;
    store;
    monitors = (if monitors then Some (Monitor.Sink.create ()) else None);
  }

(* Stop the pool, then exit nonzero when any monitor in any system of
   the run (including systems run on pool domains) recorded a
   violation. *)
let finish (setup : Setup.t) =
  Domain_pool.shutdown setup.pool;
  Option.iter
    (fun sink ->
      match Monitor.Sink.violations sink with
      | 0 -> prerr_endline "invariant monitors: all green"
      | v ->
        Printf.eprintf "invariant monitors: %d violation(s)\n" v;
        List.iter (fun line -> Printf.eprintf "  %s\n" line) (Monitor.Sink.summaries sink);
        exit 1)
    setup.monitors

(* --jobs, or the runtime's recommended domain count. *)
let pool_width jobs = Option.value jobs ~default:(Domain_pool.recommended ())

let run_cmd name =
  let doc = Printf.sprintf "Run the %s experiment and print its table(s)." name in
  let f scale jobs store json trace monitors =
    let setup = setup ~jobs:(pool_width jobs) ~store monitors in
    Report.run_named ~json ~trace ~setup ~scale name;
    finish setup
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const f $ scale_arg $ jobs_arg $ store_arg $ json_arg $ trace_arg $ monitors_arg)

let all_cmd =
  let doc = "Run every experiment (regenerates all tables)." in
  let f scale jobs store json trace monitors =
    let setup = setup ~jobs:(pool_width jobs) ~store monitors in
    Report.run_all ~json ~trace ~setup ~scale ();
    finish setup
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(const f $ scale_arg $ jobs_arg $ store_arg $ json_arg $ trace_arg $ monitors_arg)

let metrics_cmd =
  let doc =
    "Run a small end-to-end PAST workload and dump the telemetry registry snapshot (message \
     counters, routing-stage counters, storage metrics, latency histogram)."
  in
  let f store json trace monitors =
    let setup = setup ~store monitors in
    Report.metrics ~json ~trace ~setup ();
    finish setup
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const f $ store_arg $ json_arg $ trace_arg $ monitors_arg)

(* Dedicated `churn` command: same experiment as `past_sim churn` would
   auto-generate from the registry, plus knobs for the fault process
   itself (which --scale deliberately does not touch). *)
let churn_cmd =
  let module Exp_churn = Past_experiments.Exp_churn in
  let doc =
    "Run the sustained-churn invariant experiment (EXP14): a Poisson crash/rejoin process \
     with continuous availability probes, replica-recovery tracking and repair-cost \
     accounting. Exits 1 naming the row when an invariant row (lost files, recovery bound, \
     C5 repair bound) reads FAIL."
  in
  let rate_arg =
    let doc = "Crash arrivals per simulated time unit (default 0.001)." in
    Arg.(value & opt (some positive_float) None & info [ "rate" ] ~docv:"R" ~doc)
  in
  let duration_arg =
    let doc =
      "Churn horizon in simulated time units (default 1800000 = 30 simulated minutes, \
       multiplied by --scale when not given explicitly)."
    in
    Arg.(value & opt (some positive_float) None & info [ "duration" ] ~docv:"T" ~doc)
  in
  let seed_arg =
    let doc = "RNG seed (default 4); runs are a pure function of it." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Write the run's causal trace (operation spans, routes, hops, repair cascades) as \
       Chrome trace-event JSON to $(docv) — open it in Perfetto (ui.perfetto.dev) or \
       chrome://tracing."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let f scale store json rate duration seed monitors trace_out =
    let setup = setup ~store monitors in
    let p = Exp_churn.default_params in
    let p =
      {
        p with
        Exp_churn.rate = Option.value ~default:p.Exp_churn.rate rate;
        duration =
          (match duration with
          | Some d -> d
          | None -> Float.max 60_000.0 (p.Exp_churn.duration *. scale));
        seed = Option.value ~default:p.Exp_churn.seed seed;
      }
    in
    let trace_capacity = Option.map (fun _ -> 262_144) trace_out in
    let r = Exp_churn.run ?trace_capacity ~setup p in
    Report.emit ~json ~trace:0 "churn" (Report.churn_output r);
    Option.iter (fun out -> Report.write_trace ~out r.Exp_churn.registry) trace_out;
    finish setup;
    match Exp_churn.failed_invariants r with
    | [] -> ()
    | rows ->
      List.iter (Printf.eprintf "EXP14: invariant row %S reads FAIL\n") rows;
      exit 1
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const f $ scale_arg $ store_arg $ json_arg $ rate_arg $ duration_arg $ seed_arg
      $ monitors_arg $ trace_out_arg)

(* Dedicated `megastore` command: EXP9/EXP10 at millions of files on a
   chosen store backend. Deliberately not part of `all` — a full run
   takes minutes and writes gigabytes of scratch segments. *)
let megastore_cmd =
  let module Exp_storage = Past_experiments.Exp_storage in
  let doc =
    "Run the storage-utilization experiment (EXP9/EXP10, Full policy) at mega scale — \
     default one million insert attempts — and report the C7 envelope plus sustained insert \
     throughput and, on the log backend, segment/compaction statistics."
  in
  let files_arg =
    let doc = "Number of insert attempts (default 1000000)." in
    Arg.(value & opt positive_int 1_000_000 & info [ "files" ] ~docv:"N" ~doc)
  in
  let nodes_arg =
    let doc = "Number of storage nodes (default 100); capacities scale as files/nodes." in
    Arg.(value & opt positive_int 100 & info [ "nodes" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "RNG seed (default 97); runs are a pure function of it." in
    Arg.(value & opt int 97 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let f json files nodes store seed monitors =
    let setup = setup ~store monitors in
    let m = Exp_storage.run_mega ~setup ~n:nodes ~files ~seed () in
    Report.emit ~json ~trace:0 "megastore"
      (Report.tables
         [
           ( "EXP9/EXP10 mega: utilization, rejects and insert throughput at scale",
             Exp_storage.mega_table m );
         ]);
    finish setup
  in
  Cmd.v (Cmd.info "megastore" ~doc)
    Term.(const f $ json_arg $ files_arg $ nodes_arg $ store_arg $ seed_arg $ monitors_arg)

(* Dedicated `scale` command: EXP15 at 10^5–10^6 nodes over the
   snapshot-bootstrap builder. Deliberately not part of `all` — the
   top of the sweep takes minutes and gigabytes. *)
let scale_cmd =
  let module Exp_scale = Past_experiments.Exp_scale in
  let doc =
    "Run the mega-scale sweep (EXP15): build overlays at log-spaced sizes with the snapshot \
     bootstrap, route random lookups, and fit hop-count and state-size growth against \
     log_2^b N by least squares. Exits 1 when a fitted slope falls outside its analytic \
     window."
  in
  (* LO..HI stays a range until --points is known. *)
  let sizes =
    let size s =
      match int_of_string_opt (String.trim s) with Some v when v > 1 -> Some v | _ -> None
    in
    let parse spec =
      let bad =
        Error (Printf.sprintf "%S: expected LO..HI or a comma-separated list of sizes above 1" spec)
      in
      match (String.split_on_char '.' spec, List.map size (String.split_on_char ',' spec)) with
      | [ lo; ""; hi ], _ -> (
        match (size lo, size hi) with
        | Some lo, Some hi when lo <= hi -> Ok (`Range (lo, hi))
        | _ -> bad)
      | [ _ ], ns when List.for_all Option.is_some ns -> Ok (`List (List.filter_map Fun.id ns))
      | _ -> bad
    in
    let print ppf = function
      | `Range (lo, hi) -> Format.fprintf ppf "%d..%d" lo hi
      | `List ns -> Format.pp_print_string ppf (String.concat "," (List.map string_of_int ns))
    in
    Arg.conv' (parse, print)
  in
  let ns_arg =
    let doc =
      "Sweep sizes: either $(b,LO..HI) (log-spaced, see --points) or an explicit \
       comma-separated list like $(b,2000,20000,100000)."
    in
    Arg.(value & opt sizes (`Range (2000, 100_000)) & info [ "n"; "sizes" ] ~docv:"SPEC" ~doc)
  in
  let points_arg =
    let doc = "Number of log-spaced sweep points for the LO..HI form (default 5)." in
    let at_least_two = checked Arg.int ~expected:"an integer >= 2" (fun k -> k >= 2) in
    Arg.(value & opt at_least_two 5 & info [ "points" ] ~docv:"K" ~doc)
  in
  let lookups_arg =
    let doc = "Random lookups per sweep point (default 1000)." in
    Arg.(value & opt positive_int 1_000 & info [ "lookups" ] ~docv:"L" ~doc)
  in
  let tail_arg =
    let doc =
      "Fraction of each overlay joining through the real \194\1672.2 protocol rather than \
       the snapshot (default 0.01)."
    in
    Arg.(value & opt fraction 0.01 & info [ "tail" ] ~docv:"F" ~doc)
  in
  let seed_arg =
    let doc = "RNG seed (default 15); runs are a pure function of it." in
    Arg.(value & opt int 15 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let tolerance_arg =
    let doc = "Hop-slope tolerance: the fit must lie in [1-TOL, 1+TOL/4] (default 0.45)." in
    Arg.(value & opt positive_float 0.45 & info [ "tolerance" ] ~docv:"TOL" ~doc)
  in
  let f json ns points lookups tail seed tolerance monitors =
    let setup = setup monitors in
    let params =
      {
        Exp_scale.ns =
          (match ns with
          | `Range (lo, hi) -> Exp_scale.log_spaced ~lo ~hi ~k:points
          | `List ns -> ns);
        lookups;
        dynamic_tail = tail;
        seed;
        hop_tolerance = tolerance;
      }
    in
    let r = Exp_scale.run ~setup params in
    Report.emit ~json ~trace:0 "scale"
      (Report.tables
         [
           ("EXP15: scaling sweep (C1 hops, C3 state vs log_2^b N)", Exp_scale.table r);
           ("EXP15: least-squares scaling fits", Exp_scale.fits_table r);
         ]);
    finish setup;
    if not (r.Exp_scale.hop_ok && r.Exp_scale.state_ok) then begin
      prerr_endline "EXP15: fitted scaling slope outside its analytic window";
      exit 1
    end
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const f $ json_arg $ ns_arg $ points_arg $ lookups_arg $ tail_arg $ seed_arg
      $ tolerance_arg $ monitors_arg)

let trace_cmd =
  let doc =
    "Run a small traced PAST workload (inserts, a crash with repair, cached lookups, a \
     reclaim) and write its full causal trace as Chrome trace-event JSON — open it in \
     Perfetto (ui.perfetto.dev) or chrome://tracing."
  in
  let out_arg =
    let doc = "Output file for the trace-event JSON." in
    Arg.(value & opt string "past_trace.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let f store out monitors =
    let setup = setup ~store monitors in
    Report.trace_export ~setup ~out ();
    finish setup
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const f $ store_arg $ out_arg $ monitors_arg)

let list_cmd =
  let doc = "List available experiments." in
  let f () = List.iter print_endline experiment_names in
  Cmd.v (Cmd.info "list" ~doc) Term.(const f $ const ())

let () =
  let doc = "PAST reproduction: run the paper's experiments on the simulator" in
  let info = Cmd.info "past_sim" ~version:"1.0.0" ~doc in
  let subcommands =
    all_cmd :: list_cmd :: metrics_cmd :: churn_cmd :: megastore_cmd :: scale_cmd :: trace_cmd
    :: List.filter_map
         (fun (name, _) -> if name = "churn" then None else Some (run_cmd name))
         Report.all
  in
  exit (Cmd.eval (Cmd.group info subcommands))
