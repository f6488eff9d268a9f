module Nat = Past_bignum.Nat

type public = { n : Nat.t; e : Nat.t }
type keypair = { pub : public; d : Nat.t }

let generate rng ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: need at least 64 bits";
  let half = bits / 2 in
  let rec attempt () =
    let p = Nat.random_prime rng ~bits:half in
    let q = Nat.random_prime rng ~bits:(bits - half) in
    if Nat.equal p q then attempt ()
    else begin
      let n = Nat.mul p q in
      let phi = Nat.mul (Nat.sub p Nat.one) (Nat.sub q Nat.one) in
      let try_e e =
        match Nat.mod_inv e phi with
        | Some d when Nat.compare e phi < 0 -> Some { pub = { n; e }; d }
        | _ -> None
      in
      match try_e (Nat.of_int 65537) with
      | Some kp -> kp
      | None -> (
        match try_e (Nat.of_int 3) with
        | Some kp -> kp
        | None -> attempt ())
    end
  in
  attempt ()

let public_to_string { n; e } = Printf.sprintf "rsa:%s:%s" (Nat.to_hex n) (Nat.to_hex e)

let public_of_string s =
  match String.split_on_char ':' s with
  | [ "rsa"; n; e ] -> { n = Nat.of_hex n; e = Nat.of_hex e }
  | _ -> invalid_arg (Printf.sprintf "Rsa.public_of_string: %S is not an encoded public key" s)

(* EMSA-PKCS1-v1_5-like deterministic encoding:
   0x00 0x01 0xFF... 0x00 || sha256(msg), sized to the modulus. *)
let encode_message n msg =
  let k = (Nat.num_bits n + 7) / 8 in
  let digest = Sha256.digest_bytes msg in
  let dlen = Bytes.length digest in
  if k < dlen + 3 then
    (* Tiny modulus: truncate the digest rather than fail; fine for the
       simulation-scale keys used in tests. *)
    Nat.rem (Nat.of_bytes_be digest) n
  else begin
    let em = Bytes.make k '\xff' in
    Bytes.set em 0 '\x00';
    Bytes.set em 1 '\x01';
    Bytes.set em (k - dlen - 1) '\x00';
    Bytes.blit digest 0 em (k - dlen) dlen;
    Nat.of_bytes_be em
  end

let sign kp msg =
  let m = encode_message kp.pub.n msg in
  let s = Nat.mod_pow m kp.d kp.pub.n in
  let k = (Nat.num_bits kp.pub.n + 7) / 8 in
  Nat.to_bytes_be ~width:k s

let verify pub msg signature =
  let s = Nat.of_bytes_be signature in
  if Nat.compare s pub.n >= 0 then false
  else begin
    let m = Nat.mod_pow s pub.e pub.n in
    Nat.equal m (encode_message pub.n msg)
  end

let fingerprint pub = Sha256.digest_hex (public_to_string pub)
