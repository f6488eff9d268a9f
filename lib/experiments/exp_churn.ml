(* EXP14 and SOAK — sustained churn with continuous invariant checking
   (claims C5/C6, and the abstract's "nodes … may silently leave the
   system without warning. Yet, the system is able to provide strong
   assurances").

   One driver for both. A sustained join/leave process, driven by the
   declarative fault engine (Past_simnet.Churn), runs over a catalog of
   files. EXP14 holds the catalog fixed: [files] inserts before churn
   starts. SOAK ([soak_params]) starts empty and runs an open-loop
   Poisson stream of inserts, Zipf lookups and reclaims
   (Past_workload.Generator) at [ops_rate] beside the churn. Either way
   the paper's storage-management invariants are checked *while* the
   churn runs:

   - C6 availability: a probe loop looks files up throughout the run;
     transient failures are tolerated but every live file must
     eventually be found again, and no file may be lost by the end.
   - C6 durability: a scan loop tracks each file's live replica count;
     whenever it drops below k while at least one live copy remains
     (i.e. the deficit is repairable), the time until it returns to k
     is recorded and must stay within a bound derived from the
     failure-detection and re-replication parameters. Windows with
     zero live replicas cannot be repaired until a holder rejoins and
     are reported separately as outages.
   - C5 repair cost: leaf-set repair traffic per churn event must stay
     O(log_2^b N). The measured constant is dominated by the leaf-set
     size l (every leaf neighbour of a failed node runs a repair
     exchange — see EXP7), so the invariant is asserted per leaf-set
     slot: (leaf repair msgs per event) / l <= 2 * ceil(log_2^b N).
     Keep-alives burned on dead nodes and re-replication transfers are
     reported alongside but not bounded — the former is steady-state
     detection cost, the latter is data volume, not routing repair.

   Acknowledged inserts join the catalog; a reclaimed file is dead, and
   the probes, the replica scan and the final audit skip it. Holders
   honour a reclaim only from the file's owner (§2.1), so each reclaim
   goes through the client that inserted the file, and is skipped while
   that client's access node is down. After the quiesce SOAK counts the
   reclaimed files some node still stores, by the same scan. *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Store = Past_core.Store
module Overlay = Past_pastry.Overlay
module Config = Past_pastry.Config
module Net = Past_simnet.Net
module Churn = Past_simnet.Churn
module Rng = Past_stdext.Rng
module Id = Past_id.Id
module Generator = Past_workload.Generator
module Sizes = Past_workload.Sizes
module Text_table = Past_stdext.Text_table
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter
module Histogram = Past_telemetry.Histogram
module Timeseries = Past_telemetry.Timeseries

type params = {
  n : int;
  capacity : int;
  k : int;
  files : int;  (** fixed catalog, inserted before churn starts *)
  ops_rate : float;
      (** open-loop client operations per time unit during churn; 0 for
          none *)
  rate : float;  (** crash arrivals per simulated time unit *)
  mean_downtime : float;
  duration : float;  (** simulated churn horizon (time units ~ ms) *)
  probe_period : float;
  scan_period : float;
  seed : int;
}

let default_params =
  {
    n = 60;
    capacity = 3_000_000;
    k = 3;
    files = 40;
    ops_rate = 0.0;
    rate = 0.001 (* one crash per 1000 units; ~ rate * mean_downtime nodes down *);
    mean_downtime = 8_000.0;
    duration = 1_800_000.0 (* 30 simulated minutes at ms-scale units *);
    probe_period = 2_500.0;
    scan_period = 1_000.0;
    seed = 4;
  }

let soak_params =
  {
    default_params with
    n = 80;
    files = 0;
    ops_rate = 0.01 (* one op per 100 time units; ~600 ops *);
    rate = 80.0 /. 60_000.0 (* each node fails once per 60k units on average *);
    duration = 60_000.0;
    seed = 97;
  }

type result = {
  n : int;
  duration : float;
  crashes : int;
  recoveries : int;
  files : int;  (** live files at the end *)
  inserts_attempted : int;
  inserts_ok : int;
  lookups_attempted : int;
  lookups_ok : int;
  reclaims : int;
  reclaims_receipted : int;  (** reclaims that returned at least one receipt *)
  reclaimed_still_held : int;
      (** reclaimed files that some node still stores after the quiesce *)
  files_available : int;  (** live files with >= 1 live replica at the end *)
  files_replicated : int;  (** live files with >= k live replicas at the end *)
  probes : int;
  probe_failures : int;  (** transient lookup failures during churn *)
  lost_files : int;  (** live files not found after quiescence — must be 0 *)
  deficits : int;  (** repairable below-k windows observed *)
  deficit_p50 : float;
  deficit_max : float;
  recovery_bound : float;
  recovery_ok : bool;
  outages : int;  (** windows with zero live replicas *)
  outage_max : float;
  leaf_msgs : int;
  keepalives_burned : int;
  rereplications : int;  (** data-carrying [Replicate] messages *)
  repair_offers : int;  (** [Replica_offer] messages *)
  per_event_leaf_msgs : float;
  per_slot : float;  (** per leaf-set slot, the C5 invariant metric *)
  repair_bound : float;  (** 2 * ceil(log_2^b N) *)
  repair_ok : bool;
  final_live_nodes : int;
  series : Timeseries.t;
      (** per-window repair traffic, live-node count and probe latency
          quantiles over the churn phase (EXP14b) *)
  registry : Registry.t;  (** the run's telemetry registry (tracer, monitors) *)
}

let run ?trace_capacity ?(setup = Setup.sequential ()) params =
  let node_config =
    { Node.default_config with Node.verify_certificates = false; replication_delay = 200.0 }
  in
  let sys =
    Setup.system setup ~node_config ~build:`Dynamic ?trace_capacity
      ~topology:(Past_simnet.Topology.transit_stub ())
      ~seed:params.seed ~n:params.n
      ~node_capacity:(fun _ _ -> params.capacity)
      ()
  in
  let net = System.net sys in
  let reg = System.registry sys in
  let nodes = System.nodes sys in
  let cfg = Overlay.config (System.overlay sys) in
  let rng = Rng.create (params.seed + 1) in
  let clients =
    Array.init 4 (fun _ ->
        System.new_client sys ~verify:false ~op_timeout:2_000.0 ~quota:max_int ())
  in

  (* The catalog starts with [files] inserts made before churn starts;
     the op stream appends to it. [owners] maps each file to the client
     that inserted it. *)
  let owners : (Id.t, Client.t) Hashtbl.t = Hashtbl.create 16 in
  let catalog =
    Array.init params.files (fun i ->
        let c = clients.(i mod Array.length clients) in
        match
          Client.insert_sync c
            ~name:(Printf.sprintf "churn-file-%d" i)
            ~data:"" ~declared_size:10_000 ~k:params.k ()
        with
        | Client.Inserted { file_id; _ } ->
          Hashtbl.replace owners file_id c;
          Some file_id
        | Client.Insert_failed _ -> None)
    |> Array.to_list |> List.filter_map Fun.id |> Array.of_list |> ref
  in
  let dead : (Id.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let live fid = not (Hashtbl.mem dead fid) in
  (* [f] on the catalog entry [pick] chooses from its size, if live. *)
  let with_file pick f =
    let files = !catalog in
    if Array.length files > 0 then begin
      let fid = files.(pick (Array.length files)) in
      if live fid then f fid
    end
  in
  System.start_maintenance sys;
  (* Let keep-alive timers desynchronize and reach steady state before
     measuring, so repair counters don't include join traffic. *)
  System.run ~until:(Net.now net +. 5_000.0) sys;
  let t0 = Net.now net in
  let sent kind = match Net.counters_for_kind net kind with s, _, _ -> s in
  let dropped kind = match Net.counters_for_kind net kind with _, _, d -> d in
  let c_rereplicate = Registry.counter reg "past.rereplicate.sent" in
  let leaf_msgs0 = sent "leaf_request" + sent "leaf_reply" in
  let keepalive_drops0 = dropped "keepalive" in
  let rereplicate0 = Counter.value c_rereplicate in
  let c_offers = Registry.counter reg "past.rereplicate.offers" in
  let offers0 = Counter.value c_offers in

  (* The sustained join/leave process, armed as a declarative plan. *)
  let plan =
    Churn.sustained
      ~rng:(Rng.create (params.seed + 2))
      ~addrs:(Array.map Node.addr nodes)
      ~rate:params.rate ~mean_downtime:params.mean_downtime ~horizon:params.duration
      ~min_live:(3 * params.n / 4)
  in
  let plan = List.map (fun e -> { e with Churn.at = e.Churn.at +. t0 }) plan in
  Churn.apply net plan;

  (* C6 probe loop: look up a random file every probe_period; files that
     failed are re-probed every tick until they are found again, so a
     single run distinguishes transient misses from lost files. *)
  let probes = ref 0 and probe_failures = ref 0 in
  (* Dedicated to the time-series below: windowed histograms are reset
     on every sample, so this must not feed end-of-run figures. *)
  let probe_latency = Histogram.create () in
  let failed_files : (Id.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let live_client () =
    let m = Array.length clients in
    let rec pick i =
      if i >= m then None
      else
        let c = clients.((i + Rng.int rng m) mod m) in
        if Net.alive net (Node.addr (Client.access c)) then Some c else pick (i + 1)
    in
    pick 0
  in
  let probe_file file_id =
    incr probes;
    match live_client () with
    | None -> incr probe_failures (* every access point is down right now *)
    | Some c ->
      let issued = Net.now net in
      Client.lookup c ~retries:2 ~file_id (function
        | Client.Found _ ->
          Histogram.observe probe_latency (Net.now net -. issued);
          Hashtbl.remove failed_files file_id
        | Client.Lookup_failed ->
          incr probe_failures;
          if not (Hashtbl.mem failed_files file_id) then Hashtbl.add failed_files file_id ())
  in
  let horizon = t0 +. params.duration in
  let rec probe_tick () =
    if Net.now net < horizon then begin
      let pending =
        Hashtbl.fold (fun fid () acc -> if live fid then fid :: acc else acc) failed_files []
      in
      List.iter probe_file pending;
      with_file (Rng.int rng) probe_file;
      Net.schedule net ~delay:params.probe_period probe_tick
    end
  in
  Net.schedule net ~delay:params.probe_period probe_tick;

  (* C6 replica scan: track below-k windows per file. The repair clock
     only runs while at least one live copy exists — a file whose every
     replica holder is down is an outage (unrepairable until a holder
     rejoins), accounted separately. The clock restarts whenever the
     count drops *further*: each additional crash in the replica set is
     its own disruption with its own detection + repair cycle, so the
     bound is per-disruption, not per-window. Granularity:
     +-scan_period. *)
  let deficit_hist = Registry.histogram reg "churn.recovery_latency" in
  (* file -> (clock start of the latest disruption, count at that point) *)
  let deficit_since : (Id.t, float * int) Hashtbl.t = Hashtbl.create 16 in
  let outage_since : (Id.t, float) Hashtbl.t = Hashtbl.create 4 in
  let outages = ref 0 and outage_max = ref 0.0 in
  let live_replicas fid =
    Array.fold_left
      (fun acc nd ->
        if Net.alive net (Node.addr nd) && Store.mem (Node.store nd) fid then acc + 1 else acc)
      0 nodes
  in
  let close_outage fid now =
    match Hashtbl.find_opt outage_since fid with
    | Some since ->
      incr outages;
      if now -. since > !outage_max then outage_max := now -. since;
      Hashtbl.remove outage_since fid
    | None -> ()
  in
  let scan_file now fid =
    let c = live_replicas fid in
    if c >= params.k then begin
      close_outage fid now;
      match Hashtbl.find_opt deficit_since fid with
      | Some (since, _) ->
        Histogram.observe deficit_hist (now -. since);
        Hashtbl.remove deficit_since fid
      | None -> ()
    end
    else if c = 0 then begin
      (* Unrepairable: pause the repair clock until a copy reappears. *)
      Hashtbl.remove deficit_since fid;
      if not (Hashtbl.mem outage_since fid) then Hashtbl.add outage_since fid now
    end
    else begin
      close_outage fid now;
      match Hashtbl.find_opt deficit_since fid with
      | None -> Hashtbl.add deficit_since fid (now, c)
      | Some (_, last) when c < last ->
        (* Another holder went down: a fresh disruption, fresh clock. *)
        Hashtbl.replace deficit_since fid (now, c)
      | Some (since, last) when c > last ->
        (* Partial recovery (a holder rejoined): keep the clock. *)
        Hashtbl.replace deficit_since fid (since, c)
      | Some _ -> ()
    end
  in
  (* The scan runs through the quiesce phase too, so a window opened
     near the horizon is timed when repair closes it; it stops just
     before the final audit closes whatever is still open. *)
  let scanning = ref true in
  let rec scan_tick () =
    if !scanning then begin
      let now = Net.now net in
      Array.iter (fun fid -> if live fid then scan_file now fid) !catalog;
      Net.schedule net ~delay:params.scan_period scan_tick
    end
  in
  Net.schedule net ~delay:params.scan_period scan_tick;

  (* SOAK's open-loop op stream: each operation is issued at its time
     through the asynchronous client API and counted when its callback
     fires, so a slow or failing operation never delays the ones behind
     it. A zero rate skips the generator entirely (it would still draw
     from [rng]), leaving EXP14's event order untouched. *)
  let inserts_attempted = ref 0 and inserts_ok = ref 0 in
  let lookups_attempted = ref 0 and lookups_ok = ref 0 in
  let reclaims = ref 0 and reclaims_receipted = ref 0 in
  let with_client f = Option.iter f (live_client ()) in
  let with_target catalog_index = with_file (fun m -> catalog_index mod m) in
  let issue = function
    | Generator.Insert { name; size } ->
      incr inserts_attempted;
      with_client (fun c ->
          Client.insert c ~name ~data:"" ~declared_size:size ~k:params.k (function
            | Client.Inserted { file_id; _ } ->
              incr inserts_ok;
              Hashtbl.replace owners file_id c;
              catalog := Array.append !catalog [| file_id |]
            | Client.Insert_failed _ -> ()))
    | Generator.Lookup { catalog_index } ->
      with_target catalog_index (fun file_id ->
          incr lookups_attempted;
          with_client (fun c ->
              Client.lookup c ~retries:2 ~file_id (function
                | Client.Found _ -> incr lookups_ok
                | Client.Lookup_failed -> ())))
    | Generator.Reclaim { catalog_index } ->
      with_target catalog_index (fun file_id ->
          let owner = Hashtbl.find owners file_id in
          if Net.alive net (Node.addr (Client.access owner)) then begin
            incr reclaims;
            Hashtbl.add dead file_id ();
            Hashtbl.remove deficit_since file_id;
            Hashtbl.remove outage_since file_id;
            Client.reclaim owner ~file_id (fun r ->
                if r.Client.receipts <> [] then incr reclaims_receipted)
          end)
  in
  if params.ops_rate > 0.0 then begin
    let web = Sizes.web_proxy () in
    let profile =
      {
        Generator.default_profile with
        Generator.ops_per_time_unit = params.ops_rate;
        sizes = Sizes.custom (fun rng -> Stdlib.min 30_000 (Sizes.draw web rng));
      }
    in
    (* Nothing has run since [t0], so each op's delay is its time. *)
    List.iter
      (fun e -> Net.schedule net ~delay:e.Generator.at (fun () -> issue e.Generator.op))
      (Generator.schedule profile ~rng ~horizon:params.duration)
  end;

  (* EXP14b time-series: one window every ~1/48 of the churn horizon
     (floored at the probe period), sampled by the network's sim-time
     sampler. Cumulative probes report per-window deltas, so the
     repair-traffic columns are rates, not running totals. *)
  let series = Timeseries.create () in
  Timeseries.add_cumulative series ~name:"leaf_repair_msgs" (fun () ->
      sent "leaf_request" + sent "leaf_reply" - leaf_msgs0);
  Timeseries.add_cumulative series ~name:"rereplications" (fun () ->
      Counter.value c_rereplicate - rereplicate0);
  Timeseries.add_cumulative series ~name:"keepalives_burned" (fun () ->
      dropped "keepalive" - keepalive_drops0);
  Timeseries.add_cumulative series ~name:"probes" (fun () -> !probes);
  Timeseries.add_cumulative series ~name:"probe_failures" (fun () -> !probe_failures);
  Timeseries.add_level series ~name:"live_nodes" (fun () ->
      float_of_int (List.length (Overlay.live_nodes (System.overlay sys))));
  Timeseries.add_windowed_histogram series ~name:"probe_latency" probe_latency;
  let ts_interval = Float.max params.probe_period (params.duration /. 48.0) in
  Net.add_sampler net ~interval:ts_interval (fun now -> Timeseries.sample series ~now);

  (* Run the churn phase, then quiesce: pending recoveries (scheduled
     past the horizon) fire, repair finishes, and the final audit runs
     against a fully-live network. *)
  System.run ~until:horizon sys;
  System.run ~until:(Net.now net +. (5.0 *. params.mean_downtime)) sys;
  Array.iter
    (fun node -> if not (Net.alive net (Node.addr node)) then System.revive_node sys node)
    nodes;
  System.run
    ~until:
      (Net.now net
      +. (3.0 *. cfg.Config.failure_timeout)
      +. (3.0 *. cfg.Config.keepalive_period)
      +. 5_000.0)
    sys;

  scanning := false;
  (* Close any window still open at the end of the run. *)
  let t_end = Net.now net in
  let live_files = List.filter live (Array.to_list !catalog) in
  List.iter (scan_file t_end) live_files;
  Hashtbl.iter
    (fun _ (since, _) -> Histogram.observe deficit_hist (t_end -. since))
    deficit_since;
  Hashtbl.iter
    (fun _ since ->
      incr outages;
      if t_end -. since > !outage_max then outage_max := t_end -. since)
    outage_since;

  (* Final audit: with everyone back up, every file must hold k live
     replicas and be found. *)
  let final_replicas = List.map live_replicas live_files in
  let reclaimed_still_held =
    Hashtbl.fold (fun fid () acc -> if live_replicas fid > 0 then acc + 1 else acc) dead 0
  in
  let files_with p = List.length (List.filter p final_replicas) in
  let lost = ref 0 in
  List.iter
    (fun file_id ->
      match Client.lookup_sync clients.(0) ~retries:3 ~file_id () with
      | Client.Found _ -> ()
      | Client.Lookup_failed -> incr lost)
    live_files;
  System.stop_maintenance sys;
  System.run ~until:(Net.now net +. 60_000.0) sys;

  let crashes = Churn.crashes net and recoveries = Churn.recoveries net in
  let events = Stdlib.max 1 (crashes + recoveries) in
  let leaf_msgs = sent "leaf_request" + sent "leaf_reply" - leaf_msgs0 in
  let per_event = float_of_int leaf_msgs /. float_of_int events in
  let per_slot = per_event /. float_of_int cfg.Config.leaf_set_size in
  let repair_bound = 2.0 *. Float.ceil (Harness.log2b params.n cfg.Config.b) in
  (* Worst-case repairable recovery: one detection window is
     failure_timeout plus up to two keep-alive periods of tick phase;
     repair can chain two of them (the holder whose offer repairs the
     deficit may only recompute its replica set after a leaf-repair
     exchange with the neighbour that detected the crash), then the
     re-replication debounce, plus scan granularity on both edges. The
     last second is slack; it also covers the repair exchange's three
     one-way trips (under 300 ms on transit-stub). *)
  let detection =
    cfg.Config.failure_timeout +. (2.0 *. cfg.Config.keepalive_period)
  in
  let recovery_bound =
    (2.0 *. detection)
    +. node_config.Node.replication_delay
    +. (2.0 *. params.scan_period)
    +. 1_000.0
  in
  let summary = Histogram.summary deficit_hist in
  System.shutdown sys;
  {
    n = params.n;
    duration = params.duration;
    crashes;
    recoveries;
    files = List.length live_files;
    inserts_attempted = !inserts_attempted;
    inserts_ok = !inserts_ok;
    lookups_attempted = !lookups_attempted;
    lookups_ok = !lookups_ok;
    reclaims = !reclaims;
    reclaims_receipted = !reclaims_receipted;
    reclaimed_still_held;
    files_available = files_with (fun c -> c >= 1);
    files_replicated = files_with (fun c -> c >= params.k);
    probes = !probes;
    probe_failures = !probe_failures;
    lost_files = !lost;
    deficits = summary.Histogram.s_count;
    deficit_p50 = summary.Histogram.s_p50;
    deficit_max = summary.Histogram.s_max;
    recovery_bound;
    recovery_ok = summary.Histogram.s_max <= recovery_bound;
    outages = !outages;
    outage_max = !outage_max;
    leaf_msgs;
    keepalives_burned = dropped "keepalive" - keepalive_drops0;
    rereplications = Counter.value c_rereplicate - rereplicate0;
    repair_offers = Counter.value c_offers - offers0;
    per_event_leaf_msgs = per_event;
    per_slot;
    repair_bound;
    repair_ok = per_slot <= repair_bound;
    final_live_nodes = List.length (Overlay.live_nodes (System.overlay sys));
    series;
    registry = reg;
  }

(* The rows of {!table} whose invariant reads FAIL. *)
let failed_invariants r =
  List.filter_map
    (fun (row, ok) -> if ok then None else Some row)
    [
      ("live files lost", r.lost_files = 0);
      ("recovery latency vs bound", r.recovery_ok);
      ("repair msgs per leaf slot", r.repair_ok);
    ]

let table r =
  let t = Text_table.create [ "metric"; "value"; "invariant" ] in
  let pass ok = if ok then "PASS" else "FAIL" in
  Text_table.add_rowf t "network / churn horizon|N=%d, %.0f time units|" r.n r.duration;
  Text_table.add_rowf t "churn events (crash / recover)|%d / %d|" r.crashes r.recoveries;
  Text_table.add_rowf t "final live nodes|%d|" r.final_live_nodes;
  Text_table.add_rowf t "probes (transient failures)|%d (%d)|" r.probes r.probe_failures;
  Text_table.add_rowf t "live files lost|%d of %d|%s: C6, must be 0" r.lost_files r.files
    (pass (r.lost_files = 0));
  Text_table.add_rowf t "replica deficits repaired|%d (p50 %.0f, max %.0f)|" r.deficits
    r.deficit_p50 r.deficit_max;
  Text_table.add_rowf t "recovery latency vs bound|%.0f <= %.0f|%s: C6 bounded repair"
    r.deficit_max r.recovery_bound (pass r.recovery_ok);
  Text_table.add_rowf t "outages (all k holders down)|%d (max %.0f)|" r.outages r.outage_max;
  Text_table.add_rowf t "leaf repair msgs / event|%.1f (total %d)|" r.per_event_leaf_msgs
    r.leaf_msgs;
  Text_table.add_rowf t "repair msgs per leaf slot|%.2f <= %.0f|%s: C5 O(log_2^b N)" r.per_slot
    r.repair_bound (pass r.repair_ok);
  Text_table.add_rowf t "keep-alives burned on dead nodes|%d|" r.keepalives_burned;
  Text_table.add_rowf t "re-replication transfers|%d|" r.rereplications;
  Text_table.add_rowf t "re-replication offers|%d|" r.repair_offers;
  t

(* SOAK's view of the same result. *)
let soak_table r =
  let t = Text_table.create [ "metric"; "value" ] in
  Text_table.add_rowf t "inserts ok|%d / %d" r.inserts_ok r.inserts_attempted;
  Text_table.add_rowf t "lookups ok|%d / %d" r.lookups_ok r.lookups_attempted;
  Text_table.add_rowf t "reclaims issued|%d" r.reclaims;
  Text_table.add_rowf t "reclaims with >=1 receipt|%d" r.reclaims_receipted;
  Text_table.add_rowf t "reclaimed files still stored|%d of %d" r.reclaimed_still_held r.reclaims;
  Text_table.add_rowf t "failures / recoveries injected|%d / %d" r.crashes r.recoveries;
  Text_table.add_rowf t "live files at end|%d" r.files;
  Text_table.add_rowf t "available (>=1 live replica)|%d" r.files_available;
  Text_table.add_rowf t "fully replicated (k live copies)|%d" r.files_replicated;
  Text_table.add_rowf t "final live nodes|%d" r.final_live_nodes;
  t

let series_table r = Timeseries.to_table ~max_rows:16 r.series
