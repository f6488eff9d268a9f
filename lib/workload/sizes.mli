(** File-size generators.

    The SOSP'01 companion evaluated PAST's storage management on two
    workloads: web-proxy objects (NLANR trace; mean ≈ 10 kB, heavy
    tail) and filesystem files (mean ≈ 88 kB, heavier tail). Those
    traces are proprietary, so we fit the web-proxy shape, the one the
    experiments draw from, with a lognormal body and a Pareto tail (see
    DESIGN.md §2). *)

type t

val web_proxy : unit -> t
(** Lognormal(mu=8.35, sigma=1.5) body with a 3%% Pareto(1.1) tail from
    40 kB; mean ≈ 10 kB, max capped at 5 MB. *)

val custom : (Past_stdext.Rng.t -> int) -> t
(** Roll your own sampler (e.g. a capped {!web_proxy}). *)

val draw : t -> Past_stdext.Rng.t -> int
(** A file size in bytes, >= 1. *)
