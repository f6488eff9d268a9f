(* EXP6 — leaf-set resilience to simultaneous adjacent failures
   (paper claim C5).

   "With concurrent node failures, eventual delivery is guaranteed
   unless floor(l/2) nodes with adjacent nodeIds fail simultaneously
   (l is a configuration parameter with typical value 32)." — §2.2

   We kill m nodes adjacent to a target key (before any repair can
   run) and check whether lookups still reach the correct closest live
   node. *)

module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
module Id = Past_id.Id
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool

type params = {
  n : int;
  leaf_set_size : int;
  failure_counts : int list;
  trials : int;  (** keys per failure count *)
  lookups_per_trial : int;
  seed : int;
}

let default_params =
  {
    n = 2000;
    leaf_set_size = 16;
    failure_counts = [ 0; 2; 4; 6; 7; 8; 10; 12 ];
    trials = 10;
    lookups_per_trial = 30;
    seed = 17;
  }

type row = { m : int; success_rate : float; delivered_rate : float }

type result = { rows : row list; half : int }

(* One cell: a fresh n-node overlay (so failures do not accumulate),
   the m nodes adjacent to a random key killed, [lookups] lookups of
   that key fired from random live nodes; returns (hits at the closest
   live node, deliveries anywhere). Ablation B reuses it per leaf-set
   size. *)
let run_trial ~(setup : Setup.t) ~config ~n ~lookups ~seed ~m =
  let overlay : Harness.probe Overlay.t = Setup.overlay setup ~config ~seed () in
  Overlay.build_static overlay ~n;
  let key = Id.random (Overlay.rng overlay) ~width:Id.node_bits in
  (* Kill the m nodes numerically closest to the key. *)
  let victims = Overlay.sorted_neighbours overlay key ~k:m in
  List.iter (Overlay.kill overlay) victims;
  let truth = Overlay.closest_live_node overlay key in
  let hit = ref 0 and got = ref 0 in
  Overlay.install_apps overlay (fun node ->
      {
        Harness.null_app with
        Node.deliver =
          (fun ~key:_ _ _ ->
            incr got;
            if Node.addr node = Node.addr truth then incr hit);
      });
  for _ = 1 to lookups do
    Node.route (Overlay.random_live_node overlay) ~key ()
  done;
  Overlay.run overlay;
  (!hit, !got)

let run ?(setup = Setup.sequential ()) params =
  let config =
    { Past_pastry.Config.default with Past_pastry.Config.leaf_set_size = params.leaf_set_size }
  in
  (* Every (m, trial) pair is seeded independently, so the whole grid
     fans out over the domain pool; per-m sums are reassembled in
     failure_counts order below. *)
  let cases =
    List.concat_map
      (fun m -> List.init params.trials (fun i -> (m, i + 1)))
      params.failure_counts
  in
  let counts =
    Domain_pool.map setup.pool
      (fun (m, trial) ->
        run_trial ~setup ~config ~n:params.n ~lookups:params.lookups_per_trial
          ~seed:(params.seed + (1000 * m) + trial) ~m)
      cases
  in
  let rows =
    List.map
      (fun m ->
        let ok, delivered =
          List.fold_left2
            (fun (ok, del) (m', _) (hit, got) ->
              if m' = m then (ok + hit, del + got) else (ok, del))
            (0, 0) cases counts
        in
        let total = params.trials * params.lookups_per_trial in
        {
          m;
          success_rate = float_of_int ok /. float_of_int total;
          delivered_rate = float_of_int delivered /. float_of_int total;
        })
      params.failure_counts
  in
  { rows; half = params.leaf_set_size / 2 }

let table { rows; half } =
  let t =
    Text_table.create
      [ "adjacent failures m"; "delivered to correct node"; "delivered anywhere"; "regime" ]
  in
  List.iter
    (fun r ->
      Text_table.add_rowf t "%d|%.1f%%|%.1f%%|%s" r.m (100.0 *. r.success_rate)
        (100.0 *. r.delivered_rate)
        (if r.m < half then "m < l/2 (guaranteed)" else "m >= l/2 (no guarantee)"))
    rows;
  t
