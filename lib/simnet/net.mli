(** Deterministic discrete-event network simulator.

    Substitutes for the paper's Internet deployment (see DESIGN.md §2).
    Nodes register a message handler and receive an address; messages
    are delivered after a latency proportional to the topology
    proximity between the endpoints. Everything is driven by an event
    queue (a {!Past_stdext.Timing_wheel}), so a run is a pure function
    of the seed. *)

type addr = int

val pp_addr : Format.formatter -> addr -> unit

type 'msg t

type par = [ `Seq | `Domains of int ]
(** Execution engine. [`Seq] (the default) is the original
    single-queue sequential engine. [`Domains k] is the conservative
    bounded-lag parallel engine (DESIGN.md §6f): nodes are partitioned
    into 8 fixed contexts by topology locality, each context owns its
    event queue, clock and RNG streams, and the run advances in
    lock-step windows whose width is the minimum cross-partition link
    delay (the lookahead), with up to [k] domains executing the
    partitions of each window. The partitioning and every RNG draw are
    independent of [k], so a [`Domains k] run produces byte-identical
    results for any [k] — [`Domains 1] is the sequential oracle for
    [`Domains 4]. The two engines draw different RNG streams, so
    [`Seq] and [`Domains _] outputs differ from each other.

    With a topology whose {!Topology.min_cross_proximity} is 0 (plane,
    sphere) the lookahead is zero and [`Domains _] degenerates to
    exact sequential stepping in global (time, seq) order — still
    deterministic and [k]-independent, just not parallel. *)

val env_jobs : unit -> int option
(** The [PAST_NET_JOBS] environment variable, when set to a positive
    integer. *)

val default_par : unit -> par
(** [`Domains k] when [PAST_NET_JOBS=k] is set, else [`Seq]. *)

val create :
  ?loss_rate:float ->
  ?latency_factor:float ->
  ?registry:Past_telemetry.Registry.t ->
  ?describe:('msg -> string) ->
  ?par:par ->
  rng:Past_stdext.Rng.t ->
  topology:Topology.t ->
  unit ->
  'msg t
(** [loss_rate] (default 0, accepted on the closed interval [[0,1]] —
    1.0 is a blackout) drops each message independently;
    [latency_factor] (default 1.0, must be strictly positive — a
    non-positive factor would mean zero lookahead and livelock the
    windowed engine) converts proximity to delivery delay. [registry]
    (default: a fresh one) receives the network's telemetry;
    [describe] names a message's kind for the per-kind
    send/deliver/drop counters (default: every message is ["msg"]).
    [par] picks the execution engine (default: {!default_par}, i.e.
    the [PAST_NET_JOBS] environment variable). Validation failures
    report the offending value in the [Invalid_argument] message.

    Fault-injection determinism: all fault coins (loss, duplication,
    reordering) are drawn from a dedicated stream derived from [rng]
    without advancing it, and the per-message latency jitter is drawn
    from the main stream {e before} any drop decision. Two runs that
    differ only in fault knobs therefore consume the main RNG stream
    identically: every message delivered in both runs is delivered at
    the same time. *)

val parallelism : _ t -> par
(** Which execution engine this network runs on ([`Domains k] reports
    the effective worker count after clamping). *)

val shutdown : _ t -> unit
(** Tear down the worker-domain pool of a [`Domains _] network (created
    lazily at the first parallel window). Idempotent; a no-op for
    [`Seq] networks and pools never started. The network remains usable
    — a later window recreates the pool. *)

val in_window : _ t -> bool
(** [true] while the windowed engine is executing a window's partition
    slices — the phase during which environment-side mutable state must
    not be read from node handlers (see {!defer_to_env}). *)

val defer_to_env : _ t -> (unit -> unit) -> unit
(** Run [fn] now — unless called from a partition context inside a
    window, in which case [fn] is queued and replayed at the window
    barrier (in deterministic (time, context) order, with {!now}
    restored to the deferring context's clock). Wrap callbacks that
    touch environment/driver state (shared accumulators, registries of
    other systems) so they never race a concurrently executing
    partition. *)

val on_barrier : _ t -> (unit -> unit) -> unit
(** Register a hook that runs (in registration order, in the
    environment context) after every window of the parallel engine —
    for refreshing snapshots of state that node handlers read through
    {!defer_to_env}-style indirection. Never called by the sequential
    engine. *)

val registry : _ t -> Past_telemetry.Registry.t
(** The telemetry registry this network reports into. One registry per
    simulated system: parallel simulations never share counters. *)

val register : 'msg t -> handler:(addr -> 'msg -> unit) -> addr
(** Add a node: samples a location, returns its address. The handler
    receives [(source, message)]. *)

val now : _ t -> float

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

val loss_rate : _ t -> float

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
    [delay_factor * proximity * latency_factor + extra_delay]. Set the
    two directions separately for asymmetric links. *)

val clear_link : _ t -> src:addr -> dst:addr -> unit
val clear_links : _ t -> unit

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

val run : ?until:float -> ?max_events:int -> _ t -> unit
(** Process queued events in time order until the queue drains, time
    exceeds [until], or [max_events] is hit. *)

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
(** Topology distance between two registered nodes. *)

val max_proximity : _ t -> float
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

val reset_counters : _ t -> unit
