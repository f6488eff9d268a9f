(** Fixed-width identifiers for the PAST/Pastry namespace.

    NodeIds are 128-bit, fileIds are 160-bit (paper §2). Ids are
    interpreted as unsigned big-endian integers; for routing they are
    read as a sequence of base-2^b digits, most significant first. The
    id space is circular: distances wrap around 2^bits. *)

type t

val bits : t -> int
(** Width in bits, a multiple of 8. *)

val node_bits : int
(** 128, the nodeId width. *)

val file_bits : int
(** 160, the fileId width. *)

val of_bytes : bytes -> t
(** Width is 8 × the byte length. *)

val to_bytes : t -> bytes

val of_hex : width:int -> string -> t
(** [of_hex ~width s] parses hex [s] (no 0x prefix) and left-pads to
    [width] bits. Raises [Invalid_argument] if it does not fit or
    [width] is not a positive multiple of 8. *)

val to_hex : t -> string
(** Full-width lowercase hex. *)

val short : t -> string
(** First 8 hex digits — compact display in traces and monitor messages. *)

val zero : width:int -> t
val max_id : width:int -> t

val random : Past_stdext.Rng.t -> width:int -> t

val node_id_of_key : string -> t
(** 128 most significant bits of SHA-256 of a canonical public-key
    encoding (any {!Past_crypto.Signer} key; paper §2.1 "Generation of
    nodeIds"). *)

val file_id : name:string -> owner:Past_crypto.Rsa.public -> salt:string -> t
(** 160-bit SHA-1 of the file's textual name, the owner's public key and
    a random salt (paper §2). *)

val file_id_of_key : name:string -> owner_key:string -> salt:string -> t
(** Same, from a canonical public-key encoding. *)

val prefix_of_file_id : t -> t
(** The 128 most significant bits of a 160-bit fileId: the key that
    Pastry routes on (paper §2.2). *)

val compare : t -> t -> int
(** Numerical (unsigned big-endian) order. Raises [Invalid_argument] on
    width mismatch, naming both widths. *)

val equal : t -> t -> bool
val hash : t -> int

val digit : b:int -> t -> int -> int
(** [digit ~b id i] is the [i]-th base-2^b digit, [i = 0] being the most
    significant. Raises [Invalid_argument] naming the offending value
    unless [b] divides 8 (1, 2, 4 or 8) and [0 <= i < bits id / b]. *)

val shared_prefix_digits : b:int -> t -> t -> int
(** Length of the longest common prefix, counted in base-2^b digits:
    the shared leading bits up to the first differing byte, divided by
    [b]. *)

val distance : t -> t -> Past_bignum.Nat.t
(** Circular distance: [min (|a-b|) (2^bits - |a-b|)]. *)

val is_between_cw : t -> t -> t -> bool
(** [is_between_cw a x b]: walking clockwise (increasing ids, wrapping)
    from [a] to [b], do we pass [x]? Half-open: includes [x = a],
    excludes [x = b]. *)

val cw_distance : t -> t -> Past_bignum.Nat.t
(** Clockwise (increasing, wrapping) distance from [a] to [b]. *)

val closer : target:t -> t -> t -> int
(** [closer ~target x y < 0] iff [x] is strictly closer to [target] than
    [y] in circular distance, ties broken by numerical order.
    Allocation-free for ids up to 240 bits: routing, leaf-set and
    replica selection sit on this comparison. *)

val closer_oracle : target:t -> t -> t -> int
(** Same ordering computed from {!distance} over big integers — the
    reference implementation {!closer} is property-tested against. *)

val cw_dist_key : t -> t -> string
(** [(b − a) mod 2^bits] as a big-endian byte string: clockwise
    distances compare with [String.compare]. *)

val cw_dist_hi7 : t -> t -> int
(** The first [min 7 (bytes)] bytes of {!cw_dist_key}[ a b] packed
    big-endian into a nonnegative int, computed without allocating the
    key. Comparing these ints agrees with [String.compare] on the full
    keys except for ties, which callers must break on the full key. *)

val ring_dist_key : t -> t -> string
(** Circular distance as a comparable big-endian byte string. *)

val ring_dist_hi7 : t -> t -> int
(** The packed prefix of {!ring_dist_key}, under the same contract as
    {!cw_dist_hi7}: agreement with [String.compare] on full keys up to
    ties. *)

val dist_key_le_sum : string -> string -> string -> bool
(** [dist_key_le_sum d a b] is [d <= a + b] over equal-width distance
    keys (the sum may carry into a 129th bit, which is handled). *)

val add_int : t -> int -> t
(** Wrapping addition of a (possibly negative) small offset — handy for
    constructing adjacent ids in tests. *)

val to_nat : t -> Past_bignum.Nat.t
val of_nat : width:int -> Past_bignum.Nat.t -> t
(** Reduced modulo 2^width. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
