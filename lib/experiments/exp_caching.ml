(* EXP11 — caching of popular files (paper claim C8).

   "Any PAST node can cache additional copies of a file, which achieves
   query load balancing, high throughput for popular files, and reduces
   fetch distance and network traffic." — §2.3

   Zipf-popular lookups over an inserted catalog, with caches using the
   nodes' unused storage. Ablation over eviction policy (none / LRU /
   GreedyDual-Size, the companion paper's choice) and over storage
   utilization — caches shrink as real data fills the system. *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Cache = Past_core.Cache
module Popularity = Past_workload.Popularity
module Stats = Past_stdext.Stats
module Rng = Past_stdext.Rng
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool
module Timeseries = Past_telemetry.Timeseries

type params = {
  n : int;
  capacity_mean : int;
  catalog : int;  (** number of distinct files *)
  file_size : int;
  k : int;
  lookups : int;
  zipf_s : float;
  fill_fractions : float list;  (** storage utilization levels to test *)
  policies : Cache.policy list;
  seed : int;
}

let default_params =
  {
    n = 150;
    capacity_mean = 1_000_000;
    catalog = 400;
    file_size = 10_000;
    k = 3;
    lookups = 3000;
    zipf_s = 1.0;
    fill_fractions = [ 0.3; 0.8 ];
    policies = [ Cache.No_cache; Cache.Lru; Cache.Gds ];
    seed = 37;
  }

type row = {
  policy : Cache.policy;
  fill : float;
  utilization : float;
  avg_hops : float;
  avg_dist : float;
  cache_hit_fraction : float;  (** lookups served by a cached copy *)
  query_load_cv : float;  (** stddev/mean of per-node lookups served — load balance *)
  trajectory : Timeseries.t;
      (** hit rate and per-window hits sampled every 1/12 of the
          lookups — shows caches warming up (EXP11b) *)
}

type result = { rows : row list; params : params }

let run_one params policy fill =
  let node_config =
    {
      Node.default_config with
      Node.verify_certificates = false;
      cache_policy = policy;
      cache_on_insert_path = (policy <> Cache.No_cache);
      cache_on_lookup_path = (policy <> Cache.No_cache);
    }
  in
  let sys =
    System.create ~node_config ~build:`Static
      ~seed:(params.seed + int_of_float (fill *. 100.))
      ~n:params.n
      ~node_capacity:(fun _ _ -> params.capacity_mean)
      ()
  in
  let rng = Rng.create (params.seed + 11) in
  let client = System.new_client sys ~verify:false ~quota:max_int () in
  (* Fill storage to the requested utilization: the catalog plus inert
     ballast files that are never looked up. *)
  let total_capacity = System.total_capacity sys in
  let ids = Array.make params.catalog None in
  for i = 0 to params.catalog - 1 do
    match
      Client.insert_sync client ~name:(Printf.sprintf "cat-%d" i) ~data:""
        ~declared_size:params.file_size ~k:params.k ()
    with
    | Client.Inserted { file_id; _ } -> ids.(i) <- Some file_id
    | Client.Insert_failed _ -> ()
  done;
  let ballast_target = fill *. float_of_int total_capacity in
  let b = ref 0 in
  while float_of_int (System.total_used sys) < ballast_target && !b < 1_000_000 do
    incr b;
    ignore
      (Client.insert_sync client
         ~name:(Printf.sprintf "ballast-%d" !b)
         ~data:"" ~declared_size:params.file_size ~k:params.k ())
  done;
  (* Zipf lookups from clients all over the network. *)
  let pop = Popularity.zipf ~s:params.zipf_s ~n:params.catalog in
  let clients = Array.init 20 (fun _ -> System.new_client sys ~verify:false ~quota:0 ()) in
  Array.iter (fun node -> Node.reset_counters node) (System.nodes sys);
  let hops = Stats.create () and dist = Stats.create () in
  let found = ref 0 in
  (* EXP11b trajectory: sampled manually at lookup-count checkpoints
     (logical time, not sim time — the x-axis is "lookups so far"). *)
  let cache_hits () =
    Array.fold_left (fun acc n -> acc + Node.lookups_served_from_cache n) 0 (System.nodes sys)
  in
  let store_hits () =
    Array.fold_left (fun acc n -> acc + Node.lookups_served_from_store n) 0 (System.nodes sys)
  in
  let trajectory = Timeseries.create () in
  Timeseries.add_cumulative trajectory ~name:"cache_hits" cache_hits;
  Timeseries.add_cumulative trajectory ~name:"store_hits" store_hits;
  Timeseries.add_level trajectory ~name:"hit_fraction" (fun () ->
      let c = cache_hits () and s = store_hits () in
      float_of_int c /. float_of_int (Stdlib.max 1 (c + s)));
  let checkpoint = Stdlib.max 1 (params.lookups / 12) in
  for i = 1 to params.lookups do
    (let idx = Popularity.draw pop rng in
     match ids.(idx) with
     | None -> ()
     | Some file_id -> (
       let client = clients.(Rng.int rng (Array.length clients)) in
       match Client.lookup_sync client ~file_id () with
       | Client.Found { hops = h; dist = d; _ } ->
         incr found;
         Stats.add_int hops h;
         Stats.add dist d
       | Client.Lookup_failed -> ()));
    if i mod checkpoint = 0 then Timeseries.sample trajectory ~now:(float_of_int i)
  done;
  let served_cache =
    Array.fold_left (fun acc n -> acc + Node.lookups_served_from_cache n) 0 (System.nodes sys)
  in
  let served_store =
    Array.fold_left (fun acc n -> acc + Node.lookups_served_from_store n) 0 (System.nodes sys)
  in
  let load = Stats.create () in
  Array.iter
    (fun n ->
      Stats.add_int load (Node.lookups_served_from_cache n + Node.lookups_served_from_store n))
    (System.nodes sys);
  let utilization = System.global_utilization sys in
  System.shutdown sys;
  {
    policy;
    fill;
    utilization;
    avg_hops = Stats.mean hops;
    avg_dist = Stats.mean dist;
    cache_hit_fraction =
      float_of_int served_cache /. float_of_int (Stdlib.max 1 (served_cache + served_store));
    query_load_cv = (if Stats.mean load > 0.0 then Stats.stddev load /. Stats.mean load else 0.0);
    trajectory;
  }

let run params =
  (* Flatten the (fill, policy) grid: every cell builds and probes its
     own system, so all six default cells run in parallel. *)
  let cases =
    List.concat_map
      (fun fill -> List.map (fun policy -> (policy, fill)) params.policies)
      params.fill_fractions
  in
  let rows = Domain_pool.map_shared (fun (policy, fill) -> run_one params policy fill) cases in
  { rows; params }

let table { rows; _ } =
  let t =
    Text_table.create
      [ "cache policy"; "storage util"; "avg hops"; "avg fetch dist"; "cache hits"; "load CV" ]
  in
  List.iter
    (fun r ->
      Text_table.add_rowf t "%s|%.0f%%|%.2f|%.0f|%.1f%%|%.2f" (Cache.policy_name r.policy)
        (100.0 *. r.utilization) r.avg_hops r.avg_dist
        (100.0 *. r.cache_hit_fraction)
        r.query_load_cv)
    rows;
  t

(* EXP11b: cumulative hit rate per checkpoint, one column per
   (policy, fill) cell — shows the caches warming up under the Zipf
   workload. *)
let trajectory_table { rows; _ } =
  let headers =
    "lookups"
    :: List.map
         (fun r -> Printf.sprintf "%s @ %.0f%% fill" (Cache.policy_name r.policy) (100.0 *. r.fill))
         rows
  in
  let t = Text_table.create headers in
  let windows = List.map (fun r -> Array.of_list (Timeseries.windows r.trajectory)) rows in
  let depth = List.fold_left (fun acc w -> Stdlib.max acc (Array.length w)) 0 windows in
  for i = 0 to depth - 1 do
    let x =
      match windows with
      | w :: _ when i < Array.length w -> Printf.sprintf "%.0f" w.(i).Timeseries.w_end
      | _ -> ""
    in
    let cells =
      List.map
        (fun w ->
          if i < Array.length w then
            match List.assoc_opt "hit_fraction" w.(i).Timeseries.w_values with
            | Some (Timeseries.Level f) -> Printf.sprintf "%.1f%%" (100.0 *. f)
            | _ -> "-"
          else "-")
        windows
    in
    Text_table.add_row t (x :: cells)
  done;
  t
