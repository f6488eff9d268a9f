(** SHA-1 (FIPS 180-1), built from scratch for the sealed environment.

    PAST derives 160-bit fileIds from SHA-1 of the file's textual name,
    the owner's public key and a random salt (paper §2). *)

val digest_bytes : bytes -> bytes
(** 20-byte digest. *)

val digest_string : string -> bytes

val digest_hex : string -> string
(** [digest_hex s] is the lowercase hex digest of [s]. *)
