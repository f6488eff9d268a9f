(** Arbitrary-precision natural numbers.

    The sealed build environment has no zarith, so PAST's identifier
    arithmetic (128/160-bit ids) and the RSA signatures used by
    smartcards and certificates are built on this module. Values are
    immutable. All sizes encountered in PAST are small (a few dozen
    limbs), so the schoolbook algorithms used here are appropriate. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** Requires a non-negative argument. *)

val to_int : t -> int
(** Raises [Failure] if the value exceeds [max_int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_even : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)

val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val testbit : t -> int -> bool
val num_bits : t -> int
(** [num_bits zero = 0]; otherwise position of highest set bit + 1. *)

val logxor : t -> t -> t

val to_hex : t -> string
(** Lowercase, no leading zeros (["0"] for zero). *)

val of_hex : string -> t
(** Raises [Invalid_argument] on non-hex input. *)

val to_bytes_be : ?width:int -> t -> bytes
(** Big-endian encoding. With [width], left-pads with zero bytes to
    exactly [width] bytes; raises [Invalid_argument] if it does not fit. *)

val of_bytes_be : bytes -> t

val to_string : t -> string
(** Decimal. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow b e m] is [b^e mod m]. Raises [Division_by_zero] if [m] is
    zero. *)

val gcd : t -> t -> t

val mod_inv : t -> t -> t option
(** [mod_inv a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1]. *)

val random_bits : Past_stdext.Rng.t -> int -> t
(** Uniform over \[0, 2^bits). *)

val random_below : Past_stdext.Rng.t -> t -> t
(** Uniform over \[0, n). Requires [n > 0]. *)

val is_probable_prime : Past_stdext.Rng.t -> t -> bool
(** Trial division by small primes, then 20 rounds of Miller–Rabin. *)

val random_prime : Past_stdext.Rng.t -> bits:int -> t
(** A probable prime with exactly [bits] bits (top bit set, odd).
    Requires [bits >= 2]. *)
