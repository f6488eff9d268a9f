(** Deterministic pseudo-random number generator.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that experiments are reproducible from a single seed. The
    implementation is xoshiro256** seeded through splitmix64, following
    Blackman & Vigna. *)

type t

val create : int -> t
(** [create seed] returns a generator deterministically derived from
    [seed]. Distinct seeds yield independent-looking streams. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream, advancing [t].
    Use it to hand independent streams to subsystems. *)

val copy : t -> t
(** [copy t] duplicates the current state; both generators then produce
    the same future stream. *)

val derive : t -> salt:int -> t
(** [derive t ~salt] returns a generator deterministically derived from
    [t]'s {e current} state and [salt] {e without advancing} [t].
    Unlike {!split}, the parent's stream is unaffected — use it to give
    a subsystem (e.g. fault injection) its own stream while keeping the
    parent's draw sequence byte-identical to a run without that
    subsystem, or to give trial [k] of a fanned-out experiment a world
    that is a pure function of [(seed, k)]: [derive (create seed)
    ~salt:k]. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Requires a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniformly random element. Requires a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct ints from
    \[0, n). Requires [k <= n]. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] random bytes. *)
