(** Pastry neighborhood set: the M nodes closest to the present node
    according to the proximity metric (paper §2.2). Not used for
    routing; it seeds locality during joins and repairs. *)

type t

val create : ?dir:Directory.t -> config:Config.t -> own:Past_id.Id.t -> unit -> t
(** [dir] (default: a fresh private directory) resolves stored
    addresses back to peers; overlay nodes share one. *)

val add : t -> proximity:float -> Peer.t -> bool
(** Offer a peer with its measured proximity; kept if among the M
    closest. Returns [true] if membership changed. *)

val offer : t -> proximity:float -> Past_simnet.Net.addr -> bool
(** {!add} on a bare address, for the snapshot builder, which offers
    hundreds of candidates per node and must not read their peer
    records: the caller guarantees the address is not the owner's and
    is already in the directory. Equal proximities keep arrival order,
    so the members are the M closest distinct addresses offered,
    earliest first among ties. *)

val remove_addr : t -> Past_simnet.Net.addr -> bool
val members : t -> Peer.t list
val size : t -> int
