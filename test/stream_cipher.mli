(** A SHA-256-based stream cipher (CTR construction).

    PAST stores files in the clear; §2.1 "Data privacy and integrity"
    leaves encryption to the user ("users may use encryption to protect
    the privacy of their data, using a cryptosystem of their choice.
    Data encryption does not involve the smartcards"). This module is
    the cryptosystem of choice for the security tests: keystream block
    [i] is SHA-256(key ‖ nonce ‖ i), XORed over the plaintext. Symmetric:
    [decrypt = encrypt]. *)

val derive_key : passphrase:string -> string
(** A 32-byte key from a passphrase (single SHA-256; no KDF hardening —
    simulation-grade). *)

val encrypt : key:string -> nonce:string -> string -> string
(** XOR with the keystream; apply twice to decrypt. *)

val decrypt : key:string -> nonce:string -> string -> string
