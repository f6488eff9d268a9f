(** Node storage-capacity generator.

    The SOSP'01 companion models node capacities as a truncated normal
    distribution: most nodes similar, some much larger or smaller. *)

type t

val normal_truncated : mean:int -> cv:float -> t
(** Truncated at [mean/10, mean*10]; [cv] is the coefficient of
    variation (stddev/mean). *)

val draw : t -> Past_stdext.Rng.t -> int
