(** A PAST node: storage, cache and smartcard attached to a Pastry
    node (paper §2).

    The node acts as (a) a replica root coordinating inserts of files
    whose fileId it is numerically closest to, (b) a storage node
    holding primary and diverted replicas, (c) a cache for popular
    files passing through it, and (d) an access point for clients.
    Every reply to a client is a {!Wire.reply} addressed to the client's
    tag and to the span id of the operation it answers, which is the key
    the client files its pending operations under. *)

module Signer = Past_crypto.Signer

type config = {
  verify_certificates : bool;
      (** check signatures, broker endorsements and content hashes; off
          for large-scale experiments (see DESIGN.md §2) *)
  cache_policy : Cache.policy;
  cache_on_insert_path : bool;  (** populate caches from routed inserts *)
  cache_on_lookup_path : bool;  (** populate route caches after a hit *)
  replica_diversion : bool;  (** §2.3 storage management *)
  admission_thresholds : bool;
      (** the t_pri/t_div size/free-space admission rule; when off,
          nodes accept anything that fits (baseline) *)
  t_pri : float;
  t_div : float;
  replication_delay : float;
      (** debounce before re-replicating after a leaf-set change *)
}

val default_config : config

type t

val attach :
  pastry:Wire.t Past_pastry.Node.t ->
  card:Smartcard.t ->
  brokers:Signer.public list ->
  capacity:int ->
  ?config:config ->
  ?backend:Store.backend ->
  ?free_oracle:(Past_simnet.Net.addr -> int option) ->
  unit ->
  t
(** Attach PAST to an existing Pastry node (installs the app
    callbacks). [capacity] is the storage this node contributes; the
    node's smartcard should have been issued with the same
    [contributed] figure. [brokers] are the trusted card issuers —
    multiple competing brokers can co-exist in one network (§2.1).
    [free_oracle] stands in for the free-space advertisements that
    leaf-set nodes piggyback on keep-alives in the companion paper
    [12]; replica diversion uses it to pick the least-utilized
    target. *)

val pastry : t -> Wire.t Past_pastry.Node.t
val store : t -> Store.t

val cache : t -> Cache.t
(** The cache of copies held in the store's unused space. *)

val config : t -> config
val id : t -> Past_id.Id.t
val addr : t -> Past_simnet.Net.addr

val register_client : t -> (op:int -> Wire.reply -> unit) -> int
(** Register a client attached to this access point; returns the tag
    that routes replies back to it. Each reply reaches the client with
    the span id of the operation it answers ([client_ref.op]). *)

val route_client_op : ?parent:int -> t -> key:Past_id.Id.t -> Wire.t -> unit
(** Inject a client operation into the overlay at this access point.
    [parent] is the operation's causal span id, recorded on the route's
    trace events. *)

val notify_revived : t -> unit
(** Clear the re-replication debounce latch and schedule a fresh pass.
    Needed after a crash/recovery cycle: the owner-gated re-replication
    timer armed before the crash was skipped while the node was down,
    which would otherwise leave the latch stuck and suppress all future
    re-replication on this node. {!System.create} registers it as a
    liveness observer, so every revival runs it; tests call it to force
    a pass on a live node. *)

(** Counters for the experiments. *)

val lookups_served_from_store : t -> int
val lookups_served_from_cache : t -> int
val reset_counters : t -> unit
