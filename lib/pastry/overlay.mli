(** Whole-overlay construction and instrumentation.

    Two builders are provided. [build_dynamic] performs real
    message-driven joins through the §2.2 protocol — this is what the
    maintenance-cost and churn experiments exercise. [build_static]
    writes down the state that protocol converges to, directly from
    global knowledge (exact leaf sets; routing-table cells filled with
    a proximity-closest candidate) — the standard technique for
    simulating Pastry at 10^4–10^6 nodes — optionally followed by a
    tail of protocol joins; a test asserts both builders converge to
    the same invariants. Both bootstrap each protocol join from the
    nodes built before it. *)

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
    monitors are active ({!Past_telemetry.Monitor.set_default_active})
    the overlay registers a leaf-set symmetry monitor and arms a
    keepalive-period sampler that ticks the registry's monitor set. *)

val net : 'a t -> 'a Message.t Past_simnet.Net.t
val config : 'a t -> Config.t
val rng : 'a t -> Past_stdext.Rng.t

val registry : 'a t -> Past_telemetry.Registry.t
(** This overlay's private telemetry registry (created by {!create} and
    shared by the network and every node): counters, histograms, and
    the route tracer. *)

val add_node : 'a t -> 'a Node.t
(** Create a node with a random nodeId, registered on the network but
    with empty tables and not joined to anything. The next builder call
    builds it: [build_static ~n:0] populates it by snapshot,
    [build_dynamic ~n:0] joins it through the protocol. *)

val add_node_with_id : 'a t -> id:Past_id.Id.t -> 'a Node.t
(** Same, with a caller-supplied nodeId (PAST derives nodeIds from
    smartcard keys). *)

val build_static :
  ?locality:bool -> ?rt_samples:int -> ?dynamic_tail:float -> 'a t -> n:int -> unit
(** Add [n] nodes and write snapshot state into every node of the
    overlay (DESIGN.md §8a): exact leaf sets as ring slices of the
    sorted id space, each routing cell filled from its prefix class (a
    run of the sorted ids), neighborhoods as the proximity-closest of
    the leaf peers and a random sample. [locality] (default true)
    selects the proximally closest of [rt_samples] (default 8)
    candidates per routing cell, modelling Pastry's locality
    heuristic; [locality:false] picks uniformly — the "no network
    locality" (Chord-like) baseline. The state is written in bulk, with
    the overlay rng drawn in a fixed order (node by id, then row,
    column, sample), so a seed gives the same overlay on every
    version that keeps that order. Each node's [on_leaf_change] fires
    once, after its leaf set is written.

    A [dynamic_tail] fraction of the [n] new nodes (default 0: none;
    any positive fraction means at least one node) is then joined
    through the §2.2 protocol as in {!build_dynamic}, so join code
    stays exercised at any scale. Raises [Invalid_argument] naming the
    value when [dynamic_tail] is outside \[0, 1\] or [n] is negative,
    when the overlay already has built nodes (a snapshot is its first
    build), or when two nodes share a nodeId. *)

val build_dynamic : ?quiesce_every:int -> 'a t -> n:int -> unit
(** Join every registered but not yet built node through the §2.2
    protocol, in insertion order, then grow the overlay by [n] more
    sequential joins. Each join bootstraps from the proximally closest
    of 16 random draws among the nodes built before it (the paper
    assumes the joiner contacts a nearby node). [quiesce_every]
    (default 1) drains the network to quiescence every that many joins
    (and always after the last): 1 gives the fully sequential
    behaviour; larger batches amortize the drain when the overlay is a
    throwaway fixture, at the price of joiners mid-batch bootstrapping
    through nodes whose own joins are still in flight. Deterministic
    for any value. *)

val install_apps : 'a t -> ('a Node.t -> 'a Node.app) -> unit
(** Attach an application to every current node. *)

val nodes : 'a t -> 'a Node.t array
val node_count : 'a t -> int
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
