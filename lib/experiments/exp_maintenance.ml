(* EXP7 — cost of node arrival and failure repair (paper claim C5).

   "after a node failure or the arrival of a new node, the invariants
   in all affected routing tables can be restored by exchanging
   O(log_2^b N) messages" — §2.2

   We grow overlays dynamically and count the protocol messages each
   join exchanges; then we fail a node, run the keep-alive/repair
   machinery, and count repair messages. *)

module Overlay = Past_pastry.Overlay
module Net = Past_simnet.Net
module Config = Past_pastry.Config
module Stats = Past_stdext.Stats
module Text_table = Past_stdext.Text_table
module Domain_pool = Past_stdext.Domain_pool

type params = { ns : int list; join_samples : int; fail_samples : int; seed : int }

let default_params = { ns = [ 50; 100; 200; 400 ]; join_samples = 20; fail_samples = 5; seed = 23 }

type row = {
  n : int;
  avg_join_msgs : float;
  avg_repair_msgs : float;
  log_bound : float;  (** log_2^b N *)
}

type result = { rows : row list }

let count_ctl overlay =
  Past_telemetry.Counter.value
    (Past_telemetry.Registry.counter (Overlay.registry overlay) "pastry.control_sent")

(* Repair traffic, read from the network's per-kind counters:
   leaf-set state exchanges plus the keep-alives burned on the dead
   node. Only the victim is dead and loss is off, so every dropped
   keepalive in the window was addressed to the victim. *)
let count_repair net =
  let sent kind = match Net.counters_for_kind net kind with s, _, _ -> s in
  let dropped kind = match Net.counters_for_kind net kind with _, _, d -> d in
  sent "leaf_request" + sent "leaf_reply" + dropped "keepalive"

let run ?(setup = Setup.sequential ()) params =
  let config = Config.default in
  (* Each N grows and probes its own dynamic overlay — rows run on the
     setup's domain pool. *)
  let rows =
    Domain_pool.map setup.pool
      (fun n ->
        let overlay : Harness.probe Overlay.t =
          Setup.overlay setup ~config ~seed:(params.seed + n) ()
        in
        (* Throwaway base overlay: batch the quiescence drain; the
           joins being measured below run fully sequential. *)
        Overlay.build_dynamic overlay ~quiesce_every:8 ~n;
        Overlay.install_apps overlay (fun _ -> Harness.null_app);
        (* Join cost: add join_samples more nodes, counting control
           messages around each join. *)
        let join_stats = Stats.create () in
        for _ = 1 to params.join_samples do
          let before = count_ctl overlay in
          Overlay.build_dynamic overlay ~n:1;
          Overlay.install_apps overlay (fun _ -> Harness.null_app);
          Stats.add_int join_stats (count_ctl overlay - before)
        done;
        (* Failure repair cost: arm maintenance, fail one node, and
           count the repair-specific messages (leaf-set state exchanges
           and the keep-alives burned on the dead node) over two
           detection windows. Periodic keep-alives among live nodes are
           steady-state background, not repair cost, and are excluded
           by construction. *)
        let repair_stats = Stats.create () in
        let keepalive = config.Config.keepalive_period in
        let window = (2.0 *. config.Config.failure_timeout) +. (2.0 *. keepalive) in
        let net = Overlay.net overlay in
        for _ = 1 to params.fail_samples do
          Overlay.start_maintenance overlay;
          (* Let ticks reach steady state before injecting the fault. *)
          Overlay.run ~until:(Net.now net +. window) overlay;
          let victim = Overlay.random_live_node overlay in
          let before = count_repair net in
          Overlay.kill overlay victim;
          Overlay.run ~until:(Net.now net +. window) overlay;
          let repair = count_repair net - before in
          Overlay.stop_maintenance overlay;
          Overlay.run ~until:(Net.now net +. window) overlay;
          Stats.add_int repair_stats repair
        done;
        {
          n;
          avg_join_msgs = Stats.mean join_stats;
          avg_repair_msgs = Stats.mean repair_stats;
          log_bound = Harness.log2b n config.Config.b;
        })
      params.ns
  in
  { rows }

let table { rows } =
  let t =
    Text_table.create [ "N"; "avg msgs per join"; "avg extra msgs per failure"; "log_2^b N" ]
  in
  List.iter
    (fun r ->
      Text_table.add_rowf t "%d|%.1f|%.1f|%.2f" r.n r.avg_join_msgs r.avg_repair_msgs r.log_bound)
    rows;
  t
