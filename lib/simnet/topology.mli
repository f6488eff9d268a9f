(** Network proximity models.

    The paper (§1, footnote 1) defines network proximity as "a scalar
    metric, such as the number of IP hops, geographic distance, or a
    combination". A topology samples a location for each node and
    exposes that scalar metric between locations. Three models are
    provided: a Euclidean plane and a sphere (geographic distance), and
    a transit-stub hierarchy (IP-hop-like). *)

type location

type t

val plane : ?side:float -> unit -> t
(** Nodes uniform in a [side] × [side] square (default 1000.0);
    proximity is Euclidean distance. *)

val sphere : ?radius:float -> unit -> t
(** Nodes uniform on a sphere (default radius 1000.0); proximity is
    great-circle distance. *)

val transit_stub :
  ?transit_domains:int ->
  ?stubs_per_transit:int ->
  ?intra_stub:float ->
  ?stub_to_transit:float ->
  ?inter_transit:float ->
  unit ->
  t
(** Hierarchical Internet-like metric: nodes in the same stub domain are
    [intra_stub] apart (plus per-node jitter); crossing into the transit
    core costs [stub_to_transit] per side and [inter_transit] per
    transit-domain hop. Defaults: 4 transit domains, 8 stubs each,
    costs 5 / 20 / 50. *)

val sample : t -> Past_stdext.Rng.t -> location
(** Draw a location for a new node. *)

val proximity : t -> location -> location -> float
(** Scalar distance; symmetric, zero only for identical locations (up
    to jitter in the transit-stub model). *)

val max_proximity : t -> float
(** An upper bound on [proximity] between any two sampled locations —
    used to normalise distances in experiments. *)
