(** Network proximity models.

    The paper (§1, footnote 1) defines network proximity as "a scalar
    metric, such as the number of IP hops, geographic distance, or a
    combination". A topology samples a location for each node and
    exposes that scalar metric between locations. Two models are
    provided: a Euclidean plane (geographic distance) and a
    transit-stub hierarchy (IP-hop-like).

    Locations live unboxed in one flat [float array] owned by the
    caller (the network keeps one per net): location [i] is the
    [stride] floats starting at [stride * i]. *)

type t

val plane : unit -> t
(** Nodes uniform in a 1000 × 1000 square; proximity is Euclidean
    distance. *)

val transit_stub : unit -> t
(** Hierarchical Internet-like metric over 4 transit domains of 8 stub
    domains each: nodes in the same stub domain are 5 apart (plus the
    difference of their per-node jitters, below 1); crossing into the
    transit core costs 20 per side and crossing between transit domains
    another 50. *)

val stride : int
(** Floats per location in a coordinate array. *)

val sample : t -> Past_stdext.Rng.t -> float array -> int -> unit
(** [sample t rng coords i] draws a location for a new node and writes
    it as location [i] of [coords]. The draw order is part of the
    determinism contract. *)

val proximity : t -> float array -> int -> int -> float
(** [proximity t coords i j] is the scalar distance between locations
    [i] and [j] of [coords]; symmetric, zero only for identical
    locations (up to jitter in the transit-stub model). *)

val max_proximity : t -> float
(** An upper bound on [proximity] between any two sampled locations. *)
