(* EXP12 — statistical balance and replica diversity (paper claim C9).

   "(2) with high probability, the set of nodes that store the file is
   diverse in geographic location ... ; and (3) the number of files
   assigned to each node is roughly balanced. (2) and (3) follow from
   the uniformly distributed, quasi-random identifiers assigned to each
   node and file." — §2

   We measure (a) the per-node distribution of stored files and
   (b) how topologically spread a fileId's replica set is compared with
   a uniformly random node set of the same size (ratio ≈ 1 means
   replica placement is as diverse as random placement). *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Store = Past_core.Store
module Overlay = Past_pastry.Overlay
module PNode = Past_pastry.Node
module Net = Past_simnet.Net
module Stats = Past_stdext.Stats
module Rng = Past_stdext.Rng
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool
module Id = Past_id.Id

type params = {
  n : int;
  files : int;
  k : int;
  diversity_samples : int;
  trials : int;
  seed : int;
}

let default_params =
  { n = 300; files = 2000; k = 5; diversity_samples = 300; trials = 4; seed = 41 }

type result = {
  files_per_node_mean : float;
  files_per_node_cv : float;
  files_per_node_min : float;
  files_per_node_max : float;
  p5 : float;
  p95 : float;
  replica_spread : float;  (** mean pairwise proximity within replica sets *)
  random_spread : float;  (** same for uniformly random node sets *)
  diversity_ratio : float;
}

let mean_pairwise_proximity net addrs =
  let s = Stats.create () in
  List.iteri
    (fun i a ->
      List.iteri (fun j b -> if j > i then Stats.add s (Net.proximity net a b)) addrs)
    addrs;
  Stats.mean s

(* One trial: an isolated system (the system's seed and the
   client/file stream both drawn from the stream [Rng.derive] gives the
   trial index) that runs the full insert phase and a share of the
   diversity samples. Each trial is a pure
   function of (params.seed, trial index), so trials fan out over the
   domain pool; the merge concatenates samples in trial order, keeping
   the output byte-identical at any --jobs. *)
let run_trial params ~trial ~diversity_samples =
  let node_config =
    {
      Node.default_config with
      Node.verify_certificates = false;
      cache_policy = Past_core.Cache.No_cache;
      cache_on_insert_path = false;
      cache_on_lookup_path = false;
    }
  in
  let trial_rng = Rng.derive (Rng.create params.seed) ~salt:trial in
  let sys =
    System.create ~node_config ~build:`Static ~seed:(Int64.to_int (Rng.bits64 trial_rng))
      ~n:params.n
      ~node_capacity:(fun _ _ -> max_int / 4)
      ()
  in
  let rng = Rng.split trial_rng in
  let clients = Array.init 10 (fun _ -> System.new_client sys ~verify:false ~quota:max_int ()) in
  for i = 1 to params.files do
    let client = clients.(Rng.int rng (Array.length clients)) in
    ignore
      (Client.insert_sync client ~name:(Printf.sprintf "f-%d" i) ~data:"" ~declared_size:1000
         ~k:params.k ())
  done;
  let per_node = Stats.create () in
  Array.iter
    (fun node -> Stats.add_int per_node (Store.file_count (Node.store node)))
    (System.nodes sys);
  (* Replica diversity vs random placement. *)
  let overlay = System.overlay sys in
  let net = System.net sys in
  let replica = Stats.create () and random = Stats.create () in
  let nodes = System.nodes sys in
  for _ = 1 to diversity_samples do
    let key = Id.random rng ~width:Id.node_bits in
    let rs = Overlay.sorted_neighbours overlay key ~k:params.k in
    Stats.add replica (mean_pairwise_proximity net (List.map PNode.addr rs));
    let pick = Rng.sample_without_replacement rng params.k (Array.length nodes) in
    Stats.add random
      (mean_pairwise_proximity net (List.map (fun i -> Node.addr nodes.(i)) pick))
  done;
  System.shutdown sys;
  (per_node, replica, random)

let run params =
  let trials = Stdlib.max 1 params.trials in
  let share t =
    (params.diversity_samples / trials)
    + (if t < params.diversity_samples mod trials then 1 else 0)
  in
  let per_trial =
    Domain_pool.map_shared
      (fun trial -> run_trial params ~trial ~diversity_samples:(share trial))
      (List.init trials Fun.id)
  in
  (* Pool the samples in trial order: trials are same-sized worlds, so
     concatenation is the same estimator over [trials * n] nodes and
     [diversity_samples] probes. *)
  let per_node = Stats.create () and replica = Stats.create () and random = Stats.create () in
  List.iter
    (fun (pn, rep, rnd) ->
      List.iter (Stats.add per_node) (Stats.to_list pn);
      List.iter (Stats.add replica) (Stats.to_list rep);
      List.iter (Stats.add random) (Stats.to_list rnd))
    per_trial;
  let replica_spread = Stats.mean replica and random_spread = Stats.mean random in
  {
    files_per_node_mean = Stats.mean per_node;
    files_per_node_cv =
      (if Stats.mean per_node > 0.0 then Stats.stddev per_node /. Stats.mean per_node else 0.0);
    files_per_node_min = Stats.min per_node;
    files_per_node_max = Stats.max per_node;
    p5 = Stats.percentile per_node 5.0;
    p95 = Stats.percentile per_node 95.0;
    replica_spread;
    random_spread;
    diversity_ratio = (if random_spread > 0.0 then replica_spread /. random_spread else 0.0);
  }

let table r =
  let t = Text_table.create [ "metric"; "value" ] in
  Text_table.add_rowf t "files per node (mean)|%.1f" r.files_per_node_mean;
  Text_table.add_rowf t "files per node (CV)|%.2f" r.files_per_node_cv;
  Text_table.add_rowf t "files per node (min / p5 / p95 / max)|%.0f / %.0f / %.0f / %.0f"
    r.files_per_node_min r.p5 r.p95 r.files_per_node_max;
  Text_table.add_rowf t "replica-set mean pairwise distance|%.1f" r.replica_spread;
  Text_table.add_rowf t "random-set mean pairwise distance|%.1f" r.random_spread;
  Text_table.add_rowf t "diversity ratio (1.0 = as diverse as random)|%.2f" r.diversity_ratio;
  t
