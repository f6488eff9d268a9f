(** Lowercase hexadecimal encoding, shared by digests, salts and ids. *)

val of_prefix : string -> int -> string
(** [of_prefix s n] encodes the first [n] bytes of [s] as [2n] lowercase
    hex digits. Raises [Invalid_argument] unless [0 <= n <= String.length s]. *)

val of_bytes : bytes -> string
(** All of [b], e.g. a digest. *)
