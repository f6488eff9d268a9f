(** A Pastry node: routing state plus the protocols that maintain it
    (paper §2.2).

    The application above (PAST) attaches callbacks in the style of the
    common p2p API: [deliver] fires on the node numerically closest to
    the message key, [forward] on intermediate nodes (PAST uses it for
    caching), [on_direct] for point-to-point application messages, and
    [on_leaf_change] whenever leaf-set membership changes (PAST uses it
    to restore replication after failures). *)

type 'a t

type route_info = { hops : int; dist : float; path : Past_simnet.Net.addr list }

type 'a app = {
  deliver : key:Past_id.Id.t -> 'a -> route_info -> unit;
  forward : key:Past_id.Id.t -> 'a -> route_info -> [ `Continue | `Stop ];
      (** called on intermediate nodes; [`Stop] consumes the message
          (PAST answers lookups from en-route caches this way) *)
  on_direct : from:Peer.t -> 'a -> unit;
  on_leaf_change : unit -> unit;
      (** called after leaf-set membership changed. It may coalesce:
          one static build writes a node's whole leaf set at once and
          calls it once, where offering the members one by one would
          have called it once per change — so the handler must be
          idempotent over a burst (PAST's re-replication trigger is
          latched). *)
}

type shared
(** Overlay-wide telemetry handles (tracer, monitors, counters),
    shared by every node of one overlay instead of carried as nine
    per-node fields. *)

val shared_of_registry : Past_telemetry.Registry.t -> shared

val create :
  ?dir:Directory.t ->
  ?shared:shared ->
  net:'a Message.t Past_simnet.Net.t ->
  config:Config.t ->
  rng:Past_stdext.Rng.t ->
  id:Past_id.Id.t ->
  unit ->
  'a t
(** Registers the node on the network (it gets an address and a
    location) but does not join any overlay yet: a fresh node is an
    overlay of size one. [dir] (default: fresh) is the address →
    peer directory the node's tables resolve through; [shared]
    (default: built from the net's registry) the overlay-wide
    telemetry bundle. *)

val set_app : 'a t -> 'a app -> unit

val self : 'a t -> Peer.t
val net : 'a t -> 'a Message.t Past_simnet.Net.t
val id : 'a t -> Past_id.Id.t
val addr : 'a t -> Past_simnet.Net.addr

val routing_table : 'a t -> Routing_table.t
val leaf_set : 'a t -> Leaf_set.t
val neighborhood : 'a t -> Neighborhood.t

val state_size : 'a t -> int
(** Total table entries (routing table + leaf set + neighborhood) —
    the quantity bounded by (2^b − 1)·⌈log_2^b N⌉ + 2l (+M). *)

val join : 'a t -> bootstrap:Past_simnet.Net.addr -> unit
(** Start the join protocol through a (preferably nearby) existing
    node. Completion is asynchronous; run the network to quiesce. *)

val joined : 'a t -> bool

val route : ?parent:int -> 'a t -> key:Past_id.Id.t -> 'a -> unit
(** Inject an application message at this node, routed to the live node
    whose nodeId is numerically closest to [key]. [parent] names the
    causal span (see {!Past_telemetry.Trace}) this route belongs to;
    it only annotates the trace, never the routing. *)

val send_direct : 'a t -> dst:Peer.t -> 'a -> unit

val learn : 'a t -> Peer.t -> unit
(** Offer a (id, addr) binding to all three tables. *)

val set_leaf_ring :
  'a t -> ids:Past_id.Id.t array -> addrs:Past_simnet.Net.addr array -> pos:int -> count:int -> unit
(** The static overlay builder's leaf-set write ({!Leaf_set.set_ring}),
    followed by one [on_leaf_change] when the leaf set gained members. *)

val start_maintenance : 'a t -> unit
(** Begin periodic leaf-set keep-alives and failure detection. The
    timer re-arms itself; bound simulation runs with [~until]. *)

val stop_maintenance : 'a t -> unit

val recover : 'a t -> unit
(** Recovering-node protocol: contact the last known leaf set, refresh
    state, and announce our return. *)

val set_malicious : 'a t -> bool -> unit
(** A malicious node accepts messages but silently drops anything it
    should forward or deliver (§2.2 "Fault-tolerance"). *)

val malicious : 'a t -> bool
