(* Content distribution: a group publishes popular content that
   exceeds any single node's capacity and serving ability (§1 —
   "permitting a group of nodes to jointly store or publish content
   that exceeds the capacity of any individual node"), and §2.3's
   caching keeps query load balanced and fetch distance short.

   We publish a catalog, replay Zipf-popular fetches, and compare the
   system with caching off vs on (GreedyDual-Size).

   Run with: dune exec examples/content_distribution.exe *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Cache = Past_core.Cache
module Popularity = Past_workload.Popularity
module Stats = Past_stdext.Stats
module Rng = Past_stdext.Rng

let run_with ~policy ~label =
  let node_config =
    {
      Node.default_config with
      Node.cache_policy = policy;
      cache_on_insert_path = (policy <> Cache.No_cache);
      cache_on_lookup_path = (policy <> Cache.No_cache);
    }
  in
  let sys =
    System.create ~node_config ~seed:11 ~n:60 ~crypto_mode:(`Rsa 256)
      ~node_capacity:(fun _ _ -> 2_000_000)
      ()
  in
  let publisher = System.new_client sys ~quota:10_000_000 () in
  (* Publish a 60-title catalog (say, podcast episodes of ~20 kB). *)
  let catalog =
    Array.init 60 (fun i ->
        let data = String.init 20_000 (fun j -> Char.chr (((i + j) mod 93) + 33)) in
        match Client.insert_sync publisher ~name:(Printf.sprintf "episode-%02d" i) ~data ~k:3 () with
        | Client.Inserted { file_id; _ } -> file_id
        | Client.Insert_failed { reason; _ } -> failwith reason)
  in
  (* 1500 fetches with Zipf popularity from listeners all over. *)
  let rng = Rng.create 5 in
  let pop = Popularity.zipf ~s:1.0 ~n:(Array.length catalog) in
  let listeners = Array.init 15 (fun _ -> System.new_client sys ~quota:0 ()) in
  let hops = Stats.create () and dist = Stats.create () in
  let failures = ref 0 in
  for _ = 1 to 1500 do
    let file_id = catalog.(Popularity.draw pop rng) in
    let listener = listeners.(Rng.int rng (Array.length listeners)) in
    match Client.lookup_sync listener ~file_id () with
    | Client.Found { hops = h; dist = d; _ } ->
      Stats.add_int hops h;
      Stats.add dist d
    | Client.Lookup_failed -> incr failures
  done;
  let served_cache =
    Array.fold_left (fun acc n -> acc + Node.lookups_served_from_cache n) 0 (System.nodes sys)
  in
  let served_store =
    Array.fold_left (fun acc n -> acc + Node.lookups_served_from_store n) 0 (System.nodes sys)
  in
  let per_node_load = Stats.create () in
  Array.iter
    (fun n ->
      Stats.add_int per_node_load
        (Node.lookups_served_from_cache n + Node.lookups_served_from_store n))
    (System.nodes sys);
  Printf.printf
    "%-18s avg hops %.2f | avg fetch distance %6.0f | cache hits %4d/%d | busiest node served %3.0f (mean %.0f)\n"
    label (Stats.mean hops) (Stats.mean dist) served_cache (served_cache + served_store)
    (Stats.max per_node_load) (Stats.mean per_node_load);
  ignore !failures

let () =
  print_endline "== publishing popular content on PAST ==";
  print_endline "(1500 Zipf-popular fetches over a 60-title catalog, 60 nodes)\n";
  run_with ~policy:Cache.No_cache ~label:"caching off:";
  run_with ~policy:Cache.Gds ~label:"caching on (GD-S):";
  print_endline
    "\ncaching shortens fetches and flattens the per-node query load (paper section 2.3)."
