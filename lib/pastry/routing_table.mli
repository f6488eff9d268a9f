(** Pastry routing table (paper §2.2).

    Organised into ⌈128/b⌉ levels of 2^b − 1 entries each: the entries
    at level [n] refer to nodes whose nodeId shares the first [n] digits
    with the present node but differs in digit [n]. Among candidate
    nodes for a cell, the one closest by the proximity metric is kept —
    this is the source of Pastry's locality properties.

    The table stores packed [int] addresses (rows allocated on demand)
    and resolves peers through the shared {!Directory}; incumbents'
    proximities are recomputed with the [proximity] metric supplied at
    creation, which must be pure — the same address must always map to
    the same distance (true of the simulator's topology metric). *)

type t

val create :
  ?dir:Directory.t ->
  config:Config.t ->
  own:Past_id.Id.t ->
  proximity:(Past_simnet.Net.addr -> float) ->
  unit ->
  t
(** [dir] defaults to a fresh private directory (standalone tests);
    overlay nodes share one. *)

val lookup : t -> row:int -> col:int -> Peer.t option

val consider : t -> Peer.t -> bool
(** Offer a peer. It is installed if its cell is empty or if it is
    strictly closer (by the table's proximity metric) than the
    incumbent. Returns [true] if the table changed. Own id is
    ignored. *)

val consider_prox : t -> prox:float -> Peer.t -> bool
(** {!consider} with the candidate's proximity already computed — the
    variant used on the per-hop learn path. [prox] must equal what the
    table's metric returns for the candidate's address. *)

val offer : t -> prox:float -> id:Past_id.Id.t -> Past_simnet.Net.addr -> bool
(** {!consider_prox} on a bare (id, address) binding, for the snapshot
    builder, which must not read peer records: the caller guarantees
    the address is already in the directory. *)

val consider_no_proximity : t -> Peer.t -> bool
(** Like {!consider} but keeps the first-seen entry (no locality
    preference) — the "Chord-like, no network locality" baseline used in
    the locality experiment. *)

val remove_addr : t -> Past_simnet.Net.addr -> bool
(** Drop every entry referring to a failed node. Returns [true] if any
    cell changed. *)

val row_peers : t -> int -> Peer.t list
(** Live entries of one row (used during joins: the i-th node on the
    join route contributes its row i). *)

val peers : t -> Peer.t list
(** All entries, row-major. *)

val entry_count : t -> int

val next_hop : t -> key:Past_id.Id.t -> Peer.t option
(** The primary routing step: the entry at row = length of the shared
    prefix with [key], column = [key]'s digit at that position. *)
