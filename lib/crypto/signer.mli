(** Signature abstraction used by smartcards, brokers and certificates.

    Two modes share one interface:

    - [`Rsa bits] — real public-key signatures (see {!Rsa}); used by
      unit tests, the quickstart and any security-sensitive example.
    - [`Insecure] — a hash tag over a public per-key nonce. It has no
      cryptographic strength (anyone could forge it) but is
      collision-free between honest parties and costs one SHA-256 per
      sign or verify, which is what the 10^3–10^4-node storage
      experiments need. The
      paper's security argument rests on real signatures; the
      simulation substitution is documented in DESIGN.md. *)

type keypair
type public

val generate : Past_stdext.Rng.t -> mode:[ `Rsa of int | `Insecure ] -> keypair
val public : keypair -> public

val public_to_string : public -> string
(** Canonical encoding; hash it to derive nodeIds/fileIds. *)

val public_of_string : string -> public
(** Inverse of {!public_to_string} (both modes round-trip) — the
    disk-backed store uses it to rebuild certificates from a segment
    log. Raises [Invalid_argument] reporting the offending string. *)

val sign : keypair -> bytes -> bytes
val verify : public -> bytes -> bytes -> bool
val equal_public : public -> public -> bool
