(* Soak test: a PAST deployment under a sustained mixed workload with
   continuous churn — the paper's operating assumption in one run
   ("nodes … may join the system at any time and may silently leave the
   system without warning. Yet, the system is able to provide strong
   assurances", §1, abstract).

   A Poisson stream of inserts / Zipf lookups / reclaims runs while
   nodes fail and recover on exponential schedules, with keep-alive
   failure detection and re-replication active throughout. Reported:
   operation success rates, end-of-run file availability, and
   replication health. *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Store = Past_core.Store
module Generator = Past_workload.Generator
module Sizes = Past_workload.Sizes
module Overlay = Past_pastry.Overlay
module Net = Past_simnet.Net
module Rng = Past_stdext.Rng
module Id = Past_id.Id
module Text_table = Past_stdext.Text_table

type params = {
  n : int;
  capacity : int;
  k : int;
  horizon : float;  (** simulated time units of workload *)
  ops_rate : float;  (** operations per time unit *)
  mean_time_to_failure : float;
  mean_downtime : float;
  min_live_fraction : float;  (** churn keeps at least this many nodes up *)
  seed : int;
}

let default_params =
  {
    n = 80;
    capacity = 3_000_000;
    k = 3;
    horizon = 60_000.0;
    ops_rate = 0.01 (* one op per 100 time units; ~600 ops *);
    mean_time_to_failure = 60_000.0;
    mean_downtime = 8_000.0;
    min_live_fraction = 0.5;
    seed = 97;
  }

type result = {
  inserts_attempted : int;
  inserts_ok : int;
  lookups_attempted : int;
  lookups_ok : int;
  reclaims_attempted : int;
  failures_injected : int;
  recoveries : int;
  live_files : int;
  files_fully_replicated : int;
  files_available : int;  (** at least one live replica at the end *)
  final_live_nodes : int;
}

let run params =
  let node_config =
    { Node.default_config with Node.verify_certificates = false; replication_delay = 200.0 }
  in
  let sys =
    System.create ~node_config ~build:`Dynamic
      ~topology:(Past_simnet.Topology.transit_stub ())
      ~seed:params.seed ~n:params.n
      ~node_capacity:(fun _ _ -> params.capacity)
      ()
  in
  let rng = Rng.create (params.seed + 1) in
  let net = System.net sys in
  let clients = Array.init 8 (fun _ -> System.new_client sys ~verify:false ~quota:max_int ()) in
  System.start_maintenance sys;

  (* Build the merged timeline: workload ops + per-node churn, offset
     by the clock the overlay build left behind. *)
  let t0 = Net.now net in
  let profile =
    {
      Generator.default_profile with
      Generator.ops_per_time_unit = params.ops_rate;
      sizes = Sizes.custom (fun rng -> Stdlib.min 30_000 (Sizes.draw (Sizes.web_proxy ()) rng));
    }
  in
  let ops = Generator.schedule profile ~rng ~horizon:params.horizon in
  let nodes = System.nodes sys in
  let churn =
    Array.to_list nodes
    |> List.concat_map (fun node ->
           Generator.churn_schedule ~rng ~horizon:params.horizon
             ~mean_time_to_failure:params.mean_time_to_failure
             ~mean_downtime:params.mean_downtime
           |> List.map (fun e -> (e.Generator.c_at, `Churn (node, e.Generator.kind))))
  in
  let timeline =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.map (fun e -> (e.Generator.at, `Op e.Generator.op)) ops @ churn)
  in

  (* Catalog of inserted files (grows as inserts are acknowledged);
     reclaimed entries are tombstoned. *)
  let catalog : (Id.t * bool ref) array ref = ref [||] in
  let inserts_attempted = ref 0 and inserts_ok = ref 0 in
  let lookups_attempted = ref 0 and lookups_ok = ref 0 in
  let reclaims = ref 0 and failures = ref 0 and recoveries = ref 0 in
  let live_count () = List.length (Overlay.live_nodes (System.overlay sys)) in

  (* Open loop: every operation is issued at its timeline time through
     the asynchronous client API and counted when its callback fires,
     so a slow or failing operation never delays the ones behind it. *)
  let pick_client () = clients.(Rng.int rng (Array.length clients)) in
  List.iter
    (fun (at, action) ->
      System.run ~until:(t0 +. at) sys;
      match action with
      | `Churn (node, `Fail) ->
        if
          Net.alive net (Node.addr node)
          && float_of_int (live_count () - 1)
             >= params.min_live_fraction *. float_of_int params.n
        then begin
          System.kill_node sys node;
          incr failures
        end
      | `Churn (node, `Recover) ->
        if not (Net.alive net (Node.addr node)) then begin
          System.revive_node sys node;
          incr recoveries
        end
      | `Op (Generator.Insert { name; size }) ->
        incr inserts_attempted;
        Client.insert (pick_client ()) ~name ~data:"" ~declared_size:size ~k:params.k (function
          | Client.Inserted { file_id; _ } ->
            incr inserts_ok;
            catalog := Array.append !catalog [| (file_id, ref true) |]
          | Client.Insert_failed _ -> ())
      | `Op (Generator.Lookup { catalog_index }) ->
        if Array.length !catalog > 0 then begin
          let file_id, live = !catalog.(catalog_index mod Array.length !catalog) in
          if !live then begin
            incr lookups_attempted;
            Client.lookup (pick_client ()) ~retries:2 ~file_id (function
              | Client.Found _ -> incr lookups_ok
              | Client.Lookup_failed -> ())
          end
        end
      | `Op (Generator.Reclaim { catalog_index }) ->
        if Array.length !catalog > 0 then begin
          let file_id, live = !catalog.(catalog_index mod Array.length !catalog) in
          if !live then begin
            incr reclaims;
            live := false;
            Client.reclaim (pick_client ()) ~file_id ignore
          end
        end)
    timeline;

  (* Quiesce: revive everyone, let repair finish, then audit. *)
  Array.iter
    (fun node -> if not (Net.alive net (Node.addr node)) then System.revive_node sys node)
    nodes;
  let cfg = Past_pastry.Config.default in
  System.run
    ~until:
      (Net.now net
      +. (3.0 *. cfg.Past_pastry.Config.failure_timeout)
      +. (3.0 *. cfg.Past_pastry.Config.keepalive_period))
    sys;
  System.stop_maintenance sys;
  System.run ~until:(Net.now net +. 60_000.0) sys;

  let live_entries = Array.to_list !catalog |> List.filter (fun (_, live) -> !live) in
  let replica_count file_id =
    Array.fold_left
      (fun acc node ->
        if Net.alive net (Node.addr node) && Store.mem (Node.store node) file_id then acc + 1
        else acc)
      0 nodes
  in
  let fully = ref 0 and available = ref 0 in
  List.iter
    (fun (file_id, _) ->
      let c = replica_count file_id in
      if c >= params.k then incr fully;
      if c >= 1 then incr available)
    live_entries;
  System.shutdown sys;
  {
    inserts_attempted = !inserts_attempted;
    inserts_ok = !inserts_ok;
    lookups_attempted = !lookups_attempted;
    lookups_ok = !lookups_ok;
    reclaims_attempted = !reclaims;
    failures_injected = !failures;
    recoveries = !recoveries;
    live_files = List.length live_entries;
    files_fully_replicated = !fully;
    files_available = !available;
    final_live_nodes = live_count ();
  }

let table r =
  let t = Text_table.create [ "metric"; "value" ] in
  Text_table.add_rowf t "inserts ok|%d / %d" r.inserts_ok r.inserts_attempted;
  Text_table.add_rowf t "lookups ok|%d / %d" r.lookups_ok r.lookups_attempted;
  Text_table.add_rowf t "reclaims issued|%d" r.reclaims_attempted;
  Text_table.add_rowf t "failures / recoveries injected|%d / %d" r.failures_injected r.recoveries;
  Text_table.add_rowf t "live files at end|%d" r.live_files;
  Text_table.add_rowf t "available (>=1 live replica)|%d" r.files_available;
  Text_table.add_rowf t "fully replicated (k live copies)|%d" r.files_fully_replicated;
  Text_table.add_rowf t "final live nodes|%d" r.final_live_nodes;
  t
