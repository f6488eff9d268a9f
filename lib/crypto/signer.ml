module Rng = Past_stdext.Rng

type keypair = Rsa_key of Rsa.keypair | Insecure_key of { nonce : string }
type public = Rsa_pub of Rsa.public | Insecure_pub of { nonce : string }

let generate rng ~mode =
  match mode with
  | `Rsa bits -> Rsa_key (Rsa.generate rng ~bits)
  | `Insecure ->
    let nonce = Hex.of_bytes (Sha256.digest_bytes (Rng.bytes rng 16)) in
    Insecure_key { nonce }

let public = function
  | Rsa_key kp -> Rsa_pub kp.Rsa.pub
  | Insecure_key { nonce } -> Insecure_pub { nonce }

let public_to_string = function
  | Rsa_pub pub -> Rsa.public_to_string pub
  | Insecure_pub { nonce } -> "insecure:" ^ nonce

(* The insecure tag is SHA-256 of "tag:<nonce>:<msg>". *)
let insecure_tag nonce msg =
  Sha256.digest_string (String.concat ":" [ "tag"; nonce; Bytes.unsafe_to_string msg ])

let sign kp msg =
  match kp with
  | Rsa_key kp -> Rsa.sign kp msg
  | Insecure_key { nonce } -> insecure_tag nonce msg

let verify pub msg signature =
  match pub with
  | Rsa_pub pub -> Rsa.verify pub msg signature
  | Insecure_pub { nonce } -> Bytes.equal signature (insecure_tag nonce msg)

let public_of_string s =
  let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  if prefixed "insecure:" then Insecure_pub { nonce = String.sub s 9 (String.length s - 9) }
  else if prefixed "rsa:" then Rsa_pub (Rsa.public_of_string s)
  else invalid_arg (Printf.sprintf "Signer.public_of_string: %S is not an encoded public key" s)

(* Equal canonical encodings, without building them for insecure keys. *)
let equal_public a b =
  a == b
  ||
  match (a, b) with
  | Insecure_pub a, Insecure_pub b -> String.equal a.nonce b.nonce
  | _ -> String.equal (public_to_string a) (public_to_string b)
