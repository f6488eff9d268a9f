(** Assembly of a complete PAST deployment: a broker, an overlay of
    PAST nodes with smartcard-derived nodeIds, and client factories.

    This is the top of the public API: examples, tests and the
    experiment harness all start here. *)

module Signer = Past_crypto.Signer

type t

val create :
  ?pastry_config:Past_pastry.Config.t ->
  ?node_config:Node.config ->
  ?topology:Past_simnet.Topology.t ->
  ?crypto_mode:[ `Rsa of int | `Insecure ] ->
  ?build:[ `Static | `Dynamic ] ->
  ?loss_rate:float ->
  ?broker_count:int ->
  ?trace_capacity:int ->
  ?store_backend:Store.backend ->
  ?monitors:Past_telemetry.Monitor.Sink.t ->
  seed:int ->
  n:int ->
  node_capacity:(int -> Past_stdext.Rng.t -> int) ->
  unit ->
  t
(** Build a PAST network of [n] storage nodes. [node_capacity i rng]
    gives node [i]'s contributed storage in bytes. [build] selects
    message-driven joins ([`Dynamic], the default for n <= 500) or
    global-knowledge construction ([`Static], default above that; see
    {!Past_pastry.Overlay}). [crypto_mode] defaults to [`Insecure]
    (simulation-fast signatures; use [`Rsa bits] for real crypto).
    [trace_capacity] sizes the system's causal-trace ring (see
    {!Past_telemetry.Trace}). With a [monitors] sink the invariant
    monitors are active: PAST-level monitors ([past.replica_count],
    [past.quota_conservation]) are installed alongside Pastry's, and
    every violation is reported to the sink. Without one (the default)
    they are off. [store_backend] selects every node's replica storage
    backend (default [Store.Mem]). *)

val overlay : t -> Wire.t Past_pastry.Overlay.t

val broker : t -> Broker.t
(** The first broker (see {!brokers}). *)

val brokers : t -> Broker.t array
(** Competing brokers can co-exist in one network (§2.1); cards are
    issued round-robin and every node trusts all of them. *)

val nodes : t -> Node.t array
val node_count : t -> int
val rng : t -> Past_stdext.Rng.t
val net : t -> Wire.t Past_pastry.Message.t Past_simnet.Net.t

val registry : t -> Past_telemetry.Registry.t
(** The system's private telemetry registry: message counters from the
    network, routing-stage counters from Pastry, storage counters from
    PAST, and the route tracer. Two concurrent systems never share
    one. *)

val new_client :
  t ->
  ?access:Node.t ->
  ?op_timeout:float ->
  ?max_insert_attempts:int ->
  ?verify:bool ->
  ?broker_index:int ->
  quota:int ->
  unit ->
  Client.t
(** A fresh user: the broker issues a card with [quota]; the client
    attaches to [access] (default: a random live node). The optional
    parameters pass through to {!Client.create}. *)

val run : ?until:float -> t -> unit

val total_capacity : t -> int
val total_used : t -> int
val global_utilization : t -> float
(** Fraction of all contributed storage holding primary or diverted
    replicas (the §2.3 metric). *)

val node_of_pastry_addr : t -> Past_simnet.Net.addr -> Node.t
(** PAST node i is Pastry address i. Raises [Invalid_argument] naming
    the address when no node has it. *)

val kill_node : t -> Node.t -> unit
(** Silent departure: the node drops off the network with its stored
    files (paper §1: nodes "may silently leave the system without
    warning"). *)

val revive_node : t -> Node.t -> unit
(** Bring a killed node back with its previous state. The system's
    liveness observers (see {!Past_simnet.Net.on_liveness}) re-run the
    Pastry rejoin/repair protocol and re-arm PAST's re-replication
    (whose timers were suppressed while the node was down) on every
    down-to-up flip, so a {!Past_simnet.Churn} plan applied to {!net}
    revives a node just as fully. *)

val start_maintenance : t -> unit
(** Arm keep-alive failure detection on every node (needed before
    injecting failures; bound subsequent runs with [~until]). *)

val stop_maintenance : t -> unit

val shutdown : t -> unit
(** Close every node's store (file handles and scratch directories of
    disk-backed stores). The system must not be used afterwards. *)
