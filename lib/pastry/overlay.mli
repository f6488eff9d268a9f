(** Whole-overlay construction and instrumentation.

    Two builders are provided. [build_dynamic] performs real
    message-driven joins through the §2.2 protocol — this is what the
    maintenance-cost and churn experiments exercise. [build_static]
    constructs the same invariants directly from global knowledge
    (exact leaf sets; routing-table cells filled with a
    proximity-closest candidate), the standard technique for simulating
    Pastry at 10^4–10^5 nodes; a test asserts both builders converge to
    the same invariants. *)

type 'a t

val create :
  ?config:Config.t ->
  ?topology:Past_simnet.Topology.t ->
  ?loss_rate:float ->
  ?trace_capacity:int ->
  seed:int ->
  unit ->
  'a t
(** [trace_capacity] sizes the registry's trace-event ring (see
    {!Past_telemetry.Trace.create}; 0 disables tracing). When invariant
    monitors are active (the [PAST_MONITORS] convention,
    {!Past_telemetry.Monitor.env_active}) the overlay registers a
    leaf-set symmetry monitor and arms a keepalive-period sampler that
    ticks the registry's monitor set. *)

val net : 'a t -> 'a Message.t Past_simnet.Net.t
val config : 'a t -> Config.t
val rng : 'a t -> Past_stdext.Rng.t

val registry : 'a t -> Past_telemetry.Registry.t
(** This overlay's private telemetry registry (created by {!create} and
    shared by the network and every node): counters, histograms, and
    the route tracer. *)

val add_node : 'a t -> 'a Node.t
(** Create a node with a random nodeId, registered on the network but
    with empty tables and not joined to anything. *)

val add_node_with_id : 'a t -> id:Past_id.Id.t -> 'a Node.t
(** Same, with a caller-supplied nodeId (PAST derives nodeIds from
    smartcard keys). *)

val build_static : ?locality:bool -> ?rt_samples:int -> 'a t -> n:int -> unit
(** Add [n] nodes and populate all nodes with globally consistent
    state. [locality] (default true) selects the proximally closest of
    [rt_samples] (default 8) candidates per routing cell, modelling
    Pastry's locality heuristic; [locality:false] picks uniformly — the
    "no network locality" (Chord-like) baseline. *)

val populate_static : ?locality:bool -> ?rt_samples:int -> 'a t -> unit
(** Populate the already-added nodes (see {!build_static}). *)

val join_all_dynamic : ?bootstrap_sample:int -> 'a t -> unit
(** Join every already-added node sequentially through the §2.2
    protocol (see {!build_dynamic}). *)

val build_dynamic : ?bootstrap_sample:int -> ?quiesce_every:int -> 'a t -> n:int -> unit
(** Grow the overlay by [n] sequential joins, each bootstrapped from
    the proximally closest of [bootstrap_sample] (default 16) existing
    nodes (the paper assumes the joiner contacts a nearby node).
    [quiesce_every] (default 1) drains the network to quiescence every
    that many joins (and always after the last): 1 gives the fully
    sequential historical behaviour; larger batches amortize the drain
    when the overlay is a throwaway fixture, at the price of joiners
    mid-batch bootstrapping through nodes whose own joins are still in
    flight. Deterministic for any value. *)

val build_snapshot :
  ?locality:bool ->
  ?rt_samples:int ->
  ?dynamic_tail:float ->
  ?bootstrap_sample:int ->
  ?quiesce_every:int ->
  'a t ->
  n:int ->
  unit
(** Mega-scale builder (100k–1M nodes): all but a [dynamic_tail]
    fraction (default 0.01, at least one node) of the [n] nodes are
    built by snapshot — state written directly from the sorted id
    space and topology coordinates, the fixed point the §2.2 join
    protocol converges to (DESIGN.md §8) — and the tail then joins
    through the real message-driven protocol, so join code stays
    exercised at every scale. [locality]/[rt_samples] as in
    {!build_static}; [bootstrap_sample]/[quiesce_every] govern the
    tail as in {!build_dynamic}. *)

val install_apps : 'a t -> ('a Node.t -> 'a Node.app) -> unit
(** Attach an application to every current node. *)

val nodes : 'a t -> 'a Node.t array
val node_count : 'a t -> int
val node_by_addr : 'a t -> Past_simnet.Net.addr -> 'a Node.t
val random_node : 'a t -> 'a Node.t
val random_live_node : 'a t -> 'a Node.t
val live_nodes : 'a t -> 'a Node.t list

val closest_live_node : 'a t -> Past_id.Id.t -> 'a Node.t
(** Ground truth: the live node whose id is numerically closest to the
    key — what a correct route must reach. *)

val sorted_neighbours : 'a t -> Past_id.Id.t -> k:int -> 'a Node.t list
(** The [k] live nodes numerically closest to the key, closest first
    (the ideal replica set). *)

val kill : 'a t -> 'a Node.t -> unit
(** Take the node off the network (silent departure). *)

val revive : 'a t -> 'a Node.t -> unit
(** Bring it back and run the recovery protocol. *)

val run : ?until:float -> 'a t -> unit
(** Drain the event queue (bounded by [until] when maintenance timers
    are armed). *)

val start_maintenance : 'a t -> unit
val stop_maintenance : 'a t -> unit
