(* Ablations over the design parameters DESIGN.md §6 calls out:

   A. digit width b — the paper's routing bound ⌈log_2^b N⌉ and the
      state-size formula both depend on b ("b is a configuration
      parameter with typical value 4", §2.2);
   B. leaf-set size l — the failure-resilience threshold ⌊l/2⌋ moves
      with l (§2.2);
   C. admission thresholds t_pri (with t_div = t_pri / 2) — the knob
      behind the §2.3 utilization/rejection trade-off;
   D. randomize bias — §2.2 "the probability distribution is heavily
      biased towards the best choice to ensure low average route
      delay"; more randomness survives more droppers but lengthens
      routes. *)

module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
module Config = Past_pastry.Config
module Routing_table = Past_pastry.Routing_table
module Id = Past_id.Id
module Rng = Past_stdext.Rng
module Stats = Past_stdext.Stats
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool

(* --- A: b sweep --------------------------------------------------------- *)

type b_row = { b : int; avg_hops : float; bound : float; avg_rt : float }

let run_b_sweep ~n ~lookups ~seed =
  Domain_pool.map_shared
    (fun b ->
      let config = { Config.default with Config.b } in
      let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed:(seed + b) () in
      Overlay.build_static overlay ~n;
      let stats = Harness.random_lookups overlay ~lookups in
      let rt = Stats.create () in
      Array.iter
        (fun node -> Stats.add_int rt (Routing_table.entry_count (Node.routing_table node)))
        (Overlay.nodes overlay);
      {
        b;
        avg_hops = Stats.mean stats.Harness.hops;
        bound = Float.ceil (Harness.log2b n b);
        avg_rt = Stats.mean rt;
      })
    [ 1; 2; 4 ]

let b_table rows =
  let t = Text_table.create [ "b"; "avg hops"; "ceil(log_2^b N)"; "avg RT entries" ] in
  List.iter
    (fun r -> Text_table.add_rowf t "%d|%.2f|%.0f|%.1f" r.b r.avg_hops r.bound r.avg_rt)
    rows;
  t

(* --- B: l sweep ---------------------------------------------------------- *)

type l_row = { l : int; below : float; at : float }

(* Delivery success just below and at the ⌊l/2⌋ threshold. Every
   (l, m, trial) cell is an isolated, independently seeded overlay, so
   the whole grid fans out over the domain pool and the per-(l, m)
   fractions are reassembled in sweep order. *)
let run_l_sweep ~n ~trials ~lookups_per_trial ~seed =
  let ls = [ 8; 16; 32 ] in
  let cases =
    List.concat_map
      (fun l ->
        List.concat_map
          (fun m -> List.init trials (fun i -> (l, m, i + 1)))
          [ (l / 2) - 1; l / 2 ])
      ls
  in
  let counts =
    Domain_pool.map_shared
      (fun (l, m, trial) ->
        Exp_failures.run_trial
          ~config:{ Config.default with Config.leaf_set_size = l }
          ~n ~lookups:lookups_per_trial
          ~seed:(seed + (100 * l) + (10 * m) + trial)
          ~m)
      cases
  in
  let fraction l m =
    let ok, total =
      List.fold_left2
        (fun (ok, tot) (l', m', _) (hit, seen) ->
          if l' = l && m' = m then (ok + hit, tot + seen) else (ok, tot))
        (0, 0) cases counts
    in
    float_of_int ok /. float_of_int (Stdlib.max 1 total)
  in
  List.map (fun l -> { l; below = fraction l ((l / 2) - 1); at = fraction l (l / 2) }) ls

let l_table rows =
  let t =
    Text_table.create
      [ "leaf set size l"; "success at m = l/2 - 1"; "success at m = l/2" ]
  in
  List.iter
    (fun r -> Text_table.add_rowf t "%d|%.1f%%|%.1f%%" r.l (100.0 *. r.below) (100.0 *. r.at))
    rows;
  t

(* --- C: t_pri sweep ------------------------------------------------------ *)

type t_row = { t_pri : float; final_util : float; rejects : float }

let run_t_sweep ~seed =
  Domain_pool.map_shared
    (fun t_pri ->
      let base = Exp_storage.default_params in
      let params =
        { base with Exp_storage.policies = [ Exp_storage.Full ]; seed = seed + int_of_float (t_pri *. 1000.) }
      in
      (* Rebuild node config with the swept thresholds via the policy
         hook: reuse run_policy but with a custom config. *)
      let row = Exp_storage.run_policy_with_thresholds params ~t_pri ~t_div:(t_pri /. 2.0) in
      {
        t_pri;
        final_util = row.Exp_storage.final_utilization;
        rejects = row.Exp_storage.reject_rate_overall;
      })
    [ 0.05; 0.1; 0.25; 0.5 ]

let t_table rows =
  let t = Text_table.create [ "t_pri (t_div = t_pri/2)"; "final util"; "insert rejects" ] in
  List.iter
    (fun r ->
      Text_table.add_rowf t "%.2f|%.1f%%|%.1f%%" r.t_pri (100.0 *. r.final_util)
        (100.0 *. r.rejects))
    rows;
  t

(* --- D: randomize bias sweep --------------------------------------------- *)

type bias_row = { bias : float; success : float; avg_hops_b : float }

let run_bias_sweep ~n ~lookups ~fraction ~retries ~seed =
  Domain_pool.map_shared
    (fun bias ->
      let config =
        { Config.default with Config.randomized_routing = true; randomize_bias = bias }
      in
      let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed:(seed + 1) () in
      Overlay.build_static overlay ~n;
      let rng = Rng.create (seed + 2) in
      Exp_malicious.mark_malicious overlay rng ~fraction;
      let hops = Stats.create () in
      let ok = ref 0 in
      for _ = 1 to lookups do
        let key = Id.random rng ~width:Id.node_bits in
        let rec try_up_to r =
          if r > 0 then
            match Exp_malicious.attempt overlay key with
            | Some h ->
              incr ok;
              Stats.add_int hops h
            | None -> try_up_to (r - 1)
        in
        try_up_to retries
      done;
      {
        bias;
        success = float_of_int !ok /. float_of_int lookups;
        avg_hops_b = Stats.mean hops;
      })
    [ 0.5; 0.7; 0.9 ]

let bias_table rows =
  let t =
    Text_table.create
      [ "bias toward best hop"; "success (20% droppers, <=3 tries)"; "avg hops on success" ]
  in
  List.iter
    (fun r -> Text_table.add_rowf t "%.1f|%.1f%%|%.2f" r.bias (100.0 *. r.success) r.avg_hops_b)
    rows;
  t
