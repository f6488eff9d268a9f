(** Network proximity models.

    The paper (§1, footnote 1) defines network proximity as "a scalar
    metric, such as the number of IP hops, geographic distance, or a
    combination". A topology samples a location for each node and
    exposes that scalar metric between locations. Two models are
    provided: a Euclidean plane (geographic distance) and a
    transit-stub hierarchy (IP-hop-like). *)

type location

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

val sample : t -> Past_stdext.Rng.t -> location
(** Draw a location for a new node. *)

val proximity : t -> location -> location -> float
(** Scalar distance; symmetric, zero only for identical locations (up
    to jitter in the transit-stub model). *)

val max_proximity : t -> float
(** An upper bound on [proximity] between any two sampled locations. *)
