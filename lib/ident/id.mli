(** Fixed-width identifiers for the PAST/Pastry namespace.

    NodeIds are 128-bit, fileIds are 160-bit (paper §2). Ids are
    interpreted as unsigned big-endian integers; for routing they are
    read as a sequence of base-2^b digits, most significant first.

    Routing distances are 128-bit only: Pastry routes on nodeIds and on
    the 128 most significant bits of a fileId ({!prefix_of_file_id}),
    on a circular id space where distances wrap around 2^128.
    {!closer} and {!cw_compare} compare two such distances exactly;
    {!compare}, {!hash} and the containers serve both widths. *)

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
    [width] bits. Raises [Invalid_argument], naming the width and the
    hex length, if it does not fit, or naming [width] if it is not a
    positive multiple of 8. *)

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
    Pastry routes on (paper §2.2). Raises [Invalid_argument] naming the
    bit count of an id shorter than 128 bits. *)

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

val closer : target:t -> t -> t -> int
(** [closer ~target x y < 0] iff [x] is strictly closer to [target] than
    [y] in circular distance, ties broken by numerical order; [0] iff
    [x = y]. Exact and allocation-free: routing, leaf-set and replica
    selection sit on this comparison. Raises [Invalid_argument] naming
    the width unless all three ids are 128 bits. *)

val cw_compare : from:t -> t -> t -> int
(** [cw_compare ~from x y] compares the clockwise distances
    [(x − from) mod 2^128] and [(y − from) mod 2^128]: negative, zero
    (iff [x = y]) or positive. Exact and allocation-free. Raises
    [Invalid_argument] naming the width unless all three ids are 128
    bits. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
