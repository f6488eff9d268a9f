(** Pastry leaf set (paper §2.2): the l/2 nodes with numerically
    closest larger nodeIds and the l/2 with numerically closest smaller
    nodeIds, relative to the present node, wrapping around the circular
    128-bit id space.

    The leaf set determines (a) the final routing step — if the key
    falls within leaf-set range the message goes directly to the
    numerically closest member — and (b) PAST's replica set: a file is
    stored on the k nodes closest to its fileId, all of which lie in the
    root's leaf set for k <= l/2. *)

type t

val create : ?dir:Directory.t -> config:Config.t -> own:Past_id.Id.t -> unit -> t
(** [dir] (default: a fresh private directory) resolves stored
    addresses back to peers; overlay nodes share one. *)

val add : t -> now:float -> Peer.t -> bool
(** Offer a peer; inserted on whichever side(s) it is among the l/2
    closest. Returns [true] if membership changed. While liveness is
    tracked, a new member counts as heard at [now]. *)

val set_ring :
  t ->
  now:float ->
  ids:Past_id.Id.t array ->
  addrs:Past_simnet.Net.addr array ->
  pos:int ->
  count:int ->
  unit
(** Snapshot bulk write: [ids]/[addrs] list a ring's nodes in id order
    (distinct ids, every address already in the directory) and [pos]
    is the owner's slot. The larger side becomes the [count] ring
    successors of [pos] and the smaller side its [count] predecessors,
    closest first, wrapping — the state an empty leaf set reaches when
    {!add} is offered those peers. Raises [Invalid_argument] if the
    leaf set is not empty or [count] is outside \[0, l/2\] or not
    below the ring size. *)

val remove_addr : t -> Past_simnet.Net.addr -> bool
val mem_addr : t -> Past_simnet.Net.addr -> bool

val members : t -> Peer.t list
(** Distinct members, no particular order (self excluded). *)

val smaller : t -> Peer.t list
(** Counterclockwise side, closest first. *)

val larger : t -> Peer.t list
(** Clockwise side, closest first. *)

val size : t -> int
val is_empty : t -> bool

val covers : t -> Past_id.Id.t -> bool
(** Is the key within the arc spanned by the leaf set (through the own
    id)? When a side has fewer than l/2 members the node has global
    knowledge of that side, and coverage is reported accordingly. *)

val closest_including_self : t -> Past_id.Id.t -> Peer.t option
(** The member numerically closest to the key, or [None] when the own
    id is at least as close: the last routing hop delivers there. *)

val replica_set : t -> k:int -> Past_id.Id.t -> [ `Self | `Peer of Peer.t ] list
(** The [k] nodes (members + self) numerically closest to the key,
    closest first — PAST's replica set for a fileId rooted here.
    Raises [Invalid_argument] naming [k] unless [k > 0]. *)

val extreme_smaller : t -> Peer.t option
(** Farthest member on the smaller side. *)

val extreme_larger : t -> Peer.t option

(** {2 Liveness}

    Keep-alive state per slot: when each member was last heard from
    and the deadline of its unanswered probe. Nothing is kept until
    {!track_liveness} is first called. *)

val track_liveness : t -> now:float -> due:float -> unit
(** Keep liveness from now on, and count every current member as heard
    at [now] with probe deadline [due]: [infinity] for no probe
    pending, a finite time to hold every member under probe until it
    answers (it stays out of {!vouched} and {!expired} names it once
    [due] has passed). *)

val heard : t -> Past_simnet.Net.addr -> now:float -> unit
(** A message from this address arrived at [now]: if it is a member,
    stamp it heard and clear its deadline. *)

val last_heard : t -> Past_simnet.Net.addr -> float option
(** When a member was last heard from; [None] for a non-member or
    while liveness is not tracked. *)

val expired : t -> now:float -> Past_simnet.Net.addr list
(** Members whose probe deadline is before [now], each once, in slot
    order: the smaller side closest first, then the larger side. *)

val probe_silent :
  t -> now:float -> period:float -> timeout:float -> (Past_simnet.Net.addr -> unit) -> unit
(** Call the function, in slot order, on each member last heard from
    more than [period] before [now]; a member without a pending
    deadline gets one at its last-heard time + [period] + [timeout]. *)

val vouched : t -> Peer.t list * Peer.t list
(** The smaller and larger sides, closest first, without the members
    awaiting an answer to a probe: what a leaf-set reply passes on.
    While liveness is not tracked, the whole sides. *)
