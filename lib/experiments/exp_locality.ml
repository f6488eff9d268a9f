(* EXP4 — route locality (paper claim C3).

   "simulations have shown that the average distance traveled by a
   message, in terms of the proximity metric, is only 50% higher than
   the corresponding 'distance' of the source and destination in the
   underlying network" — §2.2 "Locality"

   We compare Pastry with proximity-aware routing tables against the
   same overlay built without the locality heuristic (entries chosen
   uniformly among prefix matches — the Chord-like baseline; Related
   Work: "Chord makes no explicit effort to achieve good network
   locality"). *)

module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
module Net = Past_simnet.Net
module Stats = Past_stdext.Stats
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool

type params = { ns : int list; lookups : int; seed : int }

let default_params = { ns = [ 1000; 5000 ]; lookups = 2000; seed = 11 }

type row = {
  n : int;
  locality : bool;
  avg_ratio : float;  (** route distance / direct source→destination distance *)
  avg_hops : float;
}

type result = { rows : row list }

(* Route to node ids (not random keys) so the paper's "distance of the
   source and destination in the underlying network" is well defined.
   The routed message accumulates per-hop proximity in [info.dist] and
   records the full path, whose far end is the source. *)
let measure overlay ~lookups =
  let net = Overlay.net overlay in
  let ratio = Stats.create () and hops = Stats.create () in
  Overlay.install_apps overlay (fun node ->
      {
        Harness.null_app with
        Node.deliver =
          (fun ~key:_ _ info ->
            (match List.rev info.Node.path with
            | src :: _ when src <> Node.addr node ->
              let direct = Net.proximity net src (Node.addr node) in
              if direct > 0.0 then Stats.add ratio (info.Node.dist /. direct)
            | _ -> ());
            Stats.add_int hops info.Node.hops);
      });
  for _ = 1 to lookups do
    let dst = Overlay.random_live_node overlay in
    let src = Overlay.random_live_node overlay in
    if Node.addr src <> Node.addr dst then Node.route src ~key:(Node.id dst) ()
  done;
  Overlay.run overlay;
  (Stats.mean ratio, Stats.mean hops)

let run ?(setup = Setup.sequential ()) params =
  (* Flatten the (N, locality) grid so all four overlays build and
     measure in parallel; each cell is an isolated simulation. *)
  let cases = List.concat_map (fun n -> [ (n, true); (n, false) ]) params.ns in
  let rows =
    Domain_pool.map setup.pool
      (fun (n, locality) ->
        let overlay : Harness.probe Overlay.t =
          Setup.overlay setup ~seed:(params.seed + n + if locality then 0 else 1) ()
        in
        Overlay.build_static ~locality ~rt_samples:24 overlay ~n;
        let avg_ratio, avg_hops = measure overlay ~lookups:params.lookups in
        { n; locality; avg_ratio; avg_hops })
      cases
  in
  { rows }

let table { rows } =
  let t = Text_table.create [ "N"; "routing tables"; "route dist / direct dist"; "avg hops" ] in
  List.iter
    (fun r ->
      Text_table.add_rowf t "%d|%s|%.2f|%.2f" r.n
        (if r.locality then "proximity-aware (Pastry)" else "no locality (baseline)")
        r.avg_ratio r.avg_hops)
    rows;
  t
