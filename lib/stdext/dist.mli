(** Random variate samplers used by the workload generators.

    All samplers draw from an explicit {!Rng.t}. *)

val exponential : Rng.t -> rate:float -> float
(** Mean [1/rate]. Requires [rate > 0]. *)

val normal : Rng.t -> mean:float -> stddev:float -> float
(** Box–Muller transform. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** [exp (normal mu sigma)]; heavy-ish tailed positive variates. *)

val pareto : Rng.t -> alpha:float -> x_min:float -> float
(** Classic Pareto: P(X > x) = (x_min/x)^alpha for x >= x_min.
    Requires [alpha > 0] and [x_min > 0]. *)

type zipf
(** Precomputed Zipf(s) sampler over ranks 1..n. *)

val zipf : s:float -> n:int -> zipf
(** Build a Zipf sampler with exponent [s] over [n] ranks. O(n) setup. *)

val zipf_draw : zipf -> Rng.t -> int
(** Rank in \[1, n\], rank 1 most popular. O(log n) per draw. *)

val zipf_pmf : zipf -> int -> float
(** Probability of a given rank. Kept as the oracle the sampler's
    empirical-frequency test compares {!zipf_draw} against. *)
