(** SHA-256 (FIPS 180-2), built from scratch for the sealed environment.

    PAST derives 128-bit nodeIds from a cryptographic hash of the node's
    public key (paper §2); we use the 128 most significant bits of
    SHA-256. *)

val digest_bytes : bytes -> bytes
(** 32-byte digest. *)

val digest_string : string -> bytes
