(** Fixed-cost distribution summary.

    Exact count/sum/min/max; percentiles come from a bounded reservoir
    (algorithm R) of 1024 samples, so memory stays bounded however many
    samples are observed. With fewer samples than that the percentiles are
    exact. Deterministic: the reservoir uses a private generator, not
    the simulation RNG. *)

type t

val create : unit -> t
(** An empty histogram. *)

val observe : t -> float -> unit
val observe_int : t -> int -> unit

val count : t -> int
val mean : t -> float

val min : t -> float
(** 0 when empty (as are [max], [mean] and percentiles). *)

val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] for p in [0, 100], estimated from the reservoir. *)

type summary = {
  s_count : int;
  s_sum : float;
  s_mean : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

val summary : t -> summary
val reset : t -> unit
