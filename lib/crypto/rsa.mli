(** Textbook RSA with deterministic PKCS#1-style padding over SHA-256.

    This is the signature primitive behind PAST's smartcards, brokers,
    file certificates, store receipts and reclaim certificates
    (paper §2.1). Key sizes are parameters: unit tests default to small
    keys for speed; nothing in the protocol depends on the size. *)

type public = { n : Past_bignum.Nat.t; e : Past_bignum.Nat.t }
type keypair = { pub : public; d : Past_bignum.Nat.t }

val generate : Past_stdext.Rng.t -> bits:int -> keypair
(** Generate a keypair whose modulus has [bits] bits ([bits >= 64],
    even). Public exponent 65537 (or 3 as fallback for tiny keys). *)

val public_to_string : public -> string
(** Canonical encoding of a public key; hash this to derive ids. *)

val public_of_string : string -> public
(** Inverse of {!public_to_string}. Raises [Invalid_argument] (reporting
    the offending string) on anything else. *)

val sign : keypair -> bytes -> bytes
(** [sign kp msg] signs SHA-256([msg]) with the private exponent. The
    signature length equals the modulus length in bytes. *)

val verify : public -> bytes -> bytes -> bool
(** [verify pub msg signature]. *)
