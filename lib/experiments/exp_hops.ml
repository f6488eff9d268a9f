(* EXP1 / EXP2 — routing performance (paper claim C1).

   "Pastry can route to the numerically closest node to a given fileId
   in less than ceil(log_2^b N) steps on average (b is a configuration
   parameter with typical value 4)." — §2.2

   EXP1 sweeps N and reports average hops vs the bound; EXP2 reports
   the full hop-count distribution at a fixed N. *)

module Overlay = Past_pastry.Overlay
module Config = Past_pastry.Config
module Stats = Past_stdext.Stats
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool

type params = { ns : int list; lookups : int; b : int; leaf_set_size : int; seed : int }

let default_params = { ns = [ 100; 300; 1000; 3000; 10000 ]; lookups = 2000; b = 4; leaf_set_size = 32; seed = 1 }

type row = {
  n : int;
  avg_hops : float;
  p95_hops : float;
  max_hops : float;
  bound : float;  (** ceil(log_2^b N) *)
  delivered : int;
  misdelivered : int;
}

type result = {
  rows : row list;
  params : params;
  registries : (int * Past_telemetry.Registry.t) list;
      (** per-N telemetry (route traces live in the registry's tracer) *)
}

let config_of params =
  { Config.default with Config.b = params.b; leaf_set_size = params.leaf_set_size }

(* Each row is a fully isolated simulation (own overlay, own seed
   derived from [seed + n], own registry), so rows run in parallel on
   the setup's domain pool; the order-preserving merge keeps the result
   — and the registry list, in row order — byte-identical to a
   sequential run. *)
let run ?(setup = Setup.sequential ()) params =
  let results =
    Domain_pool.map setup.pool
      (fun n ->
        let overlay : Harness.probe Overlay.t =
          Setup.overlay setup ~config:(config_of params) ~seed:(params.seed + n) ()
        in
        Overlay.build_static overlay ~n;
        let stats = Harness.random_lookups overlay ~lookups:params.lookups in
        let row =
          {
            n;
            avg_hops = Stats.mean stats.Harness.hops;
            p95_hops = Stats.percentile stats.Harness.hops 95.0;
            max_hops = Stats.max stats.Harness.hops;
            bound = Float.ceil (Harness.log2b n params.b);
            delivered = stats.Harness.delivered;
            misdelivered = stats.Harness.misdelivered;
          }
        in
        (row, (n, Overlay.registry overlay)))
      params.ns
  in
  { rows = List.map fst results; params; registries = List.map snd results }

let table { rows; params; _ } =
  let t =
    Text_table.create
      [ "N"; "avg hops"; "p95"; "max"; "ceil(log_2^b N)"; "delivered"; "misrouted" ]
  in
  List.iter
    (fun r ->
      Text_table.add_rowf t "%d|%.2f|%.0f|%.0f|%.0f|%d/%d|%d" r.n r.avg_hops r.p95_hops r.max_hops
        r.bound r.delivered params.lookups r.misdelivered)
    rows;
  t

(* EXP2: hop-count probability distribution at fixed N. *)

type dist_params = { dn : int; dlookups : int; db : int; dseed : int }

let default_dist_params = { dn = 5000; dlookups = 10000; db = 4; dseed = 7 }

type dist_result = { probs : (int * float) list; dn : int; expected : float }

let run_distribution ?(setup = Setup.sequential ()) p =
  let overlay : Harness.probe Overlay.t =
    Setup.overlay setup
      ~config:{ Config.default with Config.b = p.db }
      ~seed:p.dseed ()
  in
  Overlay.build_static overlay ~n:p.dn;
  let stats = Harness.random_lookups overlay ~lookups:p.dlookups in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun h ->
      let h = int_of_float h in
      Hashtbl.replace counts h (1 + Option.value ~default:0 (Hashtbl.find_opt counts h)))
    (Stats.to_list stats.Harness.hops);
  let total = float_of_int (Stats.count stats.Harness.hops) in
  let probs =
    Hashtbl.fold (fun h c acc -> (h, float_of_int c /. total) :: acc) counts []
    |> List.sort compare
  in
  { probs; dn = p.dn; expected = Harness.log2b p.dn p.db }

let dist_table { probs; dn; expected } =
  let t = Text_table.create [ "hops"; "probability" ] in
  List.iter (fun (h, p) -> Text_table.add_rowf t "%d|%.4f" h p) probs;
  Text_table.add_rowf t "(N=%d, log_2^b N = %.2f)|" dn expected;
  t
