(* EXP3 — per-node state size (paper claim C2).

   "The tables required in each PAST node have only
   (2^b − 1) · ceil(log_2^b N) + 2l entries" — §2.2 *)

module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
module Config = Past_pastry.Config
module Routing_table = Past_pastry.Routing_table
module Leaf_set = Past_pastry.Leaf_set
module Stats = Past_stdext.Stats
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool

type params = { ns : int list; b : int; leaf_set_size : int; seed : int }

let default_params = { ns = [ 100; 1000; 10000 ]; b = 4; leaf_set_size = 32; seed = 3 }

type row = {
  n : int;
  avg_rt_entries : float;
  max_rt_entries : float;
  avg_leaf : float;
  formula : float;  (** (2^b − 1)·ceil(log_2^b N) + 2l *)
}

type result = { rows : row list }

let run ?(setup = Setup.sequential ()) params =
  let config = { Config.default with Config.b = params.b; leaf_set_size = params.leaf_set_size } in
  (* One isolated overlay per N — rows run on the setup's domain pool. *)
  let rows =
    Domain_pool.map setup.pool
      (fun n ->
        let overlay : Harness.probe Overlay.t =
          Setup.overlay setup ~config ~seed:(params.seed + n) ()
        in
        Overlay.build_static overlay ~n;
        let rt = Stats.create () and leaf = Stats.create () in
        Array.iter
          (fun node ->
            Stats.add_int rt (Routing_table.entry_count (Node.routing_table node));
            Stats.add_int leaf
              (List.length (Leaf_set.smaller (Node.leaf_set node))
              + List.length (Leaf_set.larger (Node.leaf_set node))))
          (Overlay.nodes overlay);
        let formula =
          (float_of_int ((1 lsl params.b) - 1) *. Float.ceil (Harness.log2b n params.b))
          +. float_of_int (2 * params.leaf_set_size)
        in
        {
          n;
          avg_rt_entries = Stats.mean rt;
          max_rt_entries = Stats.max rt;
          avg_leaf = Stats.mean leaf;
          formula;
        })
      params.ns
  in
  { rows }

let table { rows } =
  let t =
    Text_table.create [ "N"; "avg RT entries"; "max RT"; "avg leaf entries"; "formula bound" ]
  in
  List.iter
    (fun r ->
      Text_table.add_rowf t "%d|%.1f|%.0f|%.1f|%.0f" r.n r.avg_rt_entries r.max_rt_entries
        r.avg_leaf r.formula)
    rows;
  t
