(* Shared instrumentation for the Pastry-level experiments: install a
   measuring app on every node, fire random lookups, and collect route
   statistics. *)

module Id = Past_id.Id
module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
module Stats = Past_stdext.Stats
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter

type probe = unit

type route_stats = {
  sent : int;
  delivered : int;
  misdelivered : int;  (** delivered, but not at the closest live node *)
  hops : Stats.t;
  dist : Stats.t;
}

let null_app =
  {
    Node.deliver = (fun ~key:_ _ _ -> ());
    forward = (fun ~key:_ _ _ -> `Continue);
    on_direct = (fun ~from:_ _ -> ());
    on_leaf_change = (fun () -> ());
  }

(* Install a delivery recorder on all nodes, backed by the overlay's
   telemetry counters. Returns the sent counter (the caller increments
   it per lookup fired) and a snapshot closure producing the counts
   accumulated since installation. *)
let install_recorder (overlay : probe Overlay.t) =
  let reg = Overlay.registry overlay in
  let c_sent = Registry.counter reg "harness.lookups.sent" in
  let c_delivered = Registry.counter reg "harness.lookups.delivered" in
  let c_misdelivered = Registry.counter reg "harness.lookups.misdelivered" in
  let base_sent = Counter.value c_sent in
  let base_delivered = Counter.value c_delivered in
  let base_misdelivered = Counter.value c_misdelivered in
  let hops = Stats.create () in
  let dist = Stats.create () in
  Overlay.install_apps overlay (fun node ->
      {
        null_app with
        Node.deliver =
          (fun ~key _ info ->
            let correct =
              Node.addr (Overlay.closest_live_node overlay key) = Node.addr node
            in
            Stats.add_int hops info.Node.hops;
            Stats.add dist info.Node.dist;
            Counter.incr c_delivered;
            if not correct then Counter.incr c_misdelivered);
      });
  let snapshot () =
    {
      sent = Counter.value c_sent - base_sent;
      delivered = Counter.value c_delivered - base_delivered;
      misdelivered = Counter.value c_misdelivered - base_misdelivered;
      hops;
      dist;
    }
  in
  (c_sent, snapshot)

let random_lookups (overlay : probe Overlay.t) ~lookups =
  let c_sent, snapshot = install_recorder overlay in
  let rng = Overlay.rng overlay in
  for _ = 1 to lookups do
    let key = Id.random rng ~width:Id.node_bits in
    let src = Overlay.random_live_node overlay in
    Node.route src ~key ();
    Counter.incr c_sent
  done;
  Overlay.run overlay;
  snapshot ()

let log2b n b = log (float_of_int n) /. log (float_of_int (1 lsl b))
