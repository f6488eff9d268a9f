(** File-popularity model for lookup workloads: Zipf-distributed
    requests over a catalog of inserted files, the standard model for
    web/content traffic and the one the caching evaluation of the
    SOSP'01 companion assumes. *)

type t

val zipf : s:float -> n:int -> t
(** Exponent [s] (1.0 ≈ classic web popularity) over [n] ranks. *)

val draw : t -> Past_stdext.Rng.t -> int
(** A 0-based catalog index, rank 0 most popular. *)
