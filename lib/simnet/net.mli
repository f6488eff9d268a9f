(** Deterministic discrete-event network simulator.

    Substitutes for the paper's Internet deployment (see DESIGN.md §2).
    Nodes register a message handler and receive an address; messages
    are delivered after a latency proportional to the topology
    proximity between the endpoints. Everything is driven by an event
    queue (a {!Past_stdext.Timing_wheel}), so a run is a pure function
    of the seed. *)

type addr = int

type 'msg t

val create :
  ?loss_rate:float ->
  ?registry:Past_telemetry.Registry.t ->
  ?describe:('msg -> string) ->
  rng:Past_stdext.Rng.t ->
  topology:Topology.t ->
  unit ->
  'msg t
(** [loss_rate] (default 0, accepted on the closed interval [[0,1]] —
    1.0 is a blackout) drops each message independently. A message's
    delivery delay is the topology proximity of its endpoints plus a
    jitter below 0.01. [registry] (default: a fresh one)
    receives the network's telemetry; [describe] names a message's kind
    for the per-kind send/deliver/drop counters (default: every message
    is ["msg"]). Validation failures report the offending value in the
    [Invalid_argument] message.

    Fault-injection determinism: all fault coins (loss, duplication,
    reordering) are drawn from a dedicated stream derived from [rng]
    without advancing it, and the per-message latency jitter is drawn
    from the main stream {e before} any drop decision. Two runs that
    differ only in fault knobs therefore consume the main RNG stream
    identically: every message delivered in both runs is delivered at
    the same time. *)

val registry : _ t -> Past_telemetry.Registry.t
(** The telemetry registry this network reports into. One registry per
    simulated system: concurrent simulations never share counters. *)

val register : 'msg t -> handler:(addr -> 'msg -> unit) -> addr
(** Add a node: samples a location into the net's flat coordinate
    array (see {!Topology.sample}), returns its address. The handler
    receives [(source, message)]. *)

val now : _ t -> float
(** The simulation clock. It never decreases. *)

val send : 'msg t -> src:addr -> dst:addr -> 'msg -> unit
(** Queue a message. Silently dropped (and counted) if [src] is down —
    a node taken down mid-event-cascade emits nothing — if [dst] is
    down at delivery time, if the endpoints are on different sides of a
    {!partition}, or if the (per-link or global) loss coin fires. *)

val schedule : ?owner:addr -> _ t -> delay:float -> (unit -> unit) -> unit
(** Run a thunk at [now + delay]. When [owner] is given, the thunk is
    skipped if that node is down at fire time: a crashed node's timers
    never run. Thunks without an owner (environment/driver timers)
    always run. *)

(** {2 Fault injection}

    Runtime knobs used by {!Churn} plans. All random decisions they
    introduce draw from the network's dedicated fault stream, so
    toggling them never perturbs the main RNG stream (see {!create}). *)

val set_loss_rate : _ t -> float -> unit
(** Replace the global loss rate, in [[0,1]]. *)

val set_link :
  _ t ->
  src:addr ->
  dst:addr ->
  ?loss:float ->
  ?delay_factor:float ->
  ?extra_delay:float ->
  unit ->
  unit
(** Override one directional link: [loss] (default: inherit the global
    rate) replaces the loss coin; delivery delay becomes
    [delay_factor * proximity + extra_delay]. Set the
    two directions separately for asymmetric links. *)

val clear_link : _ t -> src:addr -> dst:addr -> unit

val partition : _ t -> addr list list -> unit
(** Split the network: each listed group becomes one side, every
    unlisted node forms the remaining side, and messages crossing sides
    are dropped (at send time, and for in-flight messages at delivery
    time). [partition t []] is equivalent to {!heal_partition}. *)

val heal_partition : _ t -> unit

val reachable : _ t -> src:addr -> dst:addr -> bool
(** [false] iff a partition currently separates the two nodes. *)

val set_duplication_rate : _ t -> float -> unit
(** Deliver each non-dropped message a second time with that
    probability (slightly later — models retransmit/duplication). *)

val set_reorder : _ t -> rate:float -> max_extra_delay:float -> unit
(** With probability [rate], delay a message by an extra uniform
    [[0, max_extra_delay]] — enough to overtake later sends. *)

val run : ?until:float -> _ t -> unit
(** Process queued events in time order until the queue drains or time
    exceeds [until]. Stopping at [until] moves
    the clock forward to [until], never backwards: an [until] earlier
    than {!now} leaves the clock unchanged. *)

val add_sampler : _ t -> interval:float -> (float -> unit) -> unit
(** Arm a periodic sim-time observer: the callback runs at every
    multiple of [interval] the clock crosses (called with the boundary
    time, before the event that crosses it is dispatched; [run ~until]
    also fires boundaries up to [until] when the queue drains early).
    Samplers are not queue events — an armed sampler never prevents
    {!run} from quiescing — and callbacks must not mutate simulation
    state or draw from its RNGs: they are for snapshotting telemetry
    and evaluating invariant monitors. *)

val step : _ t -> bool
(** Process a single event; [false] when the queue is empty. *)

val set_alive : _ t -> addr -> bool -> unit
(** Down nodes neither receive messages nor fire their scheduled
    thunks. *)

val alive : _ t -> addr -> bool

val liveness_epoch : _ t -> int
(** Bumped on every [set_alive] call — lets callers cache derived
    liveness state (e.g. the overlay's live-node array) and revalidate
    with one int comparison. *)

val node_count : _ t -> int
val proximity : _ t -> addr -> addr -> float
(** Topology distance between two registered nodes, read from the
    flat coordinate array. Raises [Invalid_argument] naming an
    unregistered address. *)

val rng : _ t -> Past_stdext.Rng.t

(** Counters, cumulative since creation. These are thin reads of the
    registry's [net.sent] / [net.delivered] / [net.dropped] counters. *)

val messages_sent : _ t -> int
val messages_delivered : _ t -> int
val messages_dropped : _ t -> int

val messages_dropped_src_down : _ t -> int
(** Subset of [messages_dropped]: sends suppressed because the source
    itself was down. *)

val messages_dropped_partition : _ t -> int
(** Subset of [messages_dropped]: messages cut by a partition. *)

val messages_duplicated : _ t -> int

val counters_for_kind : _ t -> string -> int * int * int
(** [(sent, delivered, dropped)] for one [describe] kind — how the
    experiments account traffic by message type. *)
