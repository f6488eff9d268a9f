(** Fixed-cost distribution summary.

    Exact count/sum/min/max; percentiles come from a bounded reservoir
    (algorithm R), so memory stays O(capacity) however many samples are
    observed. With fewer samples than [capacity] the percentiles are
    exact. Deterministic: the reservoir uses a private generator, not
    the simulation RNG. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 1024. *)

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
