module Sha1 = Past_crypto.Sha1
module Sha256 = Past_crypto.Sha256
module Rsa = Past_crypto.Rsa
module Signer = Past_crypto.Signer
module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

(* FIPS 180 test vectors. *)

let sha1_vectors () =
  let cases =
    [
      ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
      ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
      ("The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
    ]
  in
  List.iter (fun (input, expect) -> check Alcotest.string input expect (Sha1.digest_hex input)) cases

let sha1_million_a () =
  check Alcotest.string "10^6 x a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.digest_hex (String.make 1_000_000 'a'))

let sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]
  in
  List.iter
    (fun (input, expect) -> check Alcotest.string input expect (Sha256.digest_hex input))
    cases

let sha256_million_a () =
  check Alcotest.string "10^6 x a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

(* Padding boundaries: 55 leftover bytes still fit one padded tail
   block, 56 need two, and at multiples of 64 the tail holds padding
   only. Digests of [String.make n 'x'] from coreutils
   [sha1sum]/[sha256sum]. *)
let padding_boundaries () =
  List.iter
    (fun (len, sha1, sha256) ->
      let s = String.make len 'x' in
      check Alcotest.string (Printf.sprintf "sha1 len %d" len) sha1 (Sha1.digest_hex s);
      check Alcotest.string (Printf.sprintf "sha256 len %d" len) sha256 (Sha256.digest_hex s))
    [
      ( 0,
        "da39a3ee5e6b4b0d3255bfef95601890afd80709",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
      ( 1,
        "11f6ad8ec52a2984abaafd7c3b516503785c2072",
        "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881" );
      ( 54,
        "31045e7bb077ff8d188a776b196b980388735dbb",
        "45f316e10b2c99abf374b22bda893cf3300d77263f1e272349ed414680522952" );
      ( 55,
        "cef734ba81a024479e09eb5a75b6ddae62e6abf1",
        "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072" );
      ( 56,
        "901305367c259952f4e7af8323f480d59f81335b",
        "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e" );
      ( 57,
        "025ecbd5d70f8fb3c5457cd96bab13fda305dc59",
        "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217" );
      ( 63,
        "0ddc4e0cccd9a12850deb5abb0853a4425559fec",
        "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2" );
      ( 64,
        "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163",
        "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c" );
      ( 65,
        "78c741ddc482e4cdf8c474a0876347a0905b6233",
        "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9" );
      ( 119,
        "4300320394f7ee239bcdce7d3b8bcee173a0cd5c",
        "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c" );
      ( 120,
        "ceb2821639c4b6dcb10bce0e522ca2e608ce056d",
        "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98" );
      ( 128,
        "150fa3fbdc899bd0b8f95a9fb6027f564d953762",
        "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464" );
      ( 1000,
        "c3efa690fa3fdd2e2526853eed670538ea127638",
        "44f8354494a5ba03ba1792a8d3e9c534c47a9181980fde7a3f44b06ef2ae7c7f" );
    ]

let sha_distinct_inputs () =
  check Alcotest.bool "different inputs differ" false
    (String.equal (Sha256.digest_hex "a") (Sha256.digest_hex "b"))

(* The table-driven encoder against the obvious formatting one. *)
let hex_matches_printf =
  QCheck.Test.make ~name:"Hex.of_bytes = Printf %02x per byte" ~count:200 QCheck.string
    (fun s ->
      let oracle =
        String.concat ""
          (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
      in
      String.equal (Past_crypto.Hex.of_bytes (Bytes.of_string s)) oracle)

(* [digest_string] hashes its argument in place; it must agree with
   hashing a private copy. Lengths up to 300 cross several block
   edges. *)
let digest_string_matches_bytes =
  QCheck.Test.make ~name:"digest_string s = digest_bytes (Bytes.of_string s)" ~count:200
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      Bytes.equal (Sha1.digest_string s) (Sha1.digest_bytes (Bytes.of_string s))
      && Bytes.equal (Sha256.digest_string s) (Sha256.digest_bytes (Bytes.of_string s)))

(* --- RSA --- *)

let keypair = lazy (Rsa.generate (Rng.create 100) ~bits:512)
let keypair2 = lazy (Rsa.generate (Rng.create 101) ~bits:256)

let rsa_sign_verify () =
  let kp = Lazy.force keypair in
  let msg = Bytes.of_string "The PAST storage utility" in
  let s = Rsa.sign kp msg in
  check Alcotest.bool "verifies" true (Rsa.verify kp.Rsa.pub msg s)

let rsa_reject_tampered_message () =
  let kp = Lazy.force keypair in
  let s = Rsa.sign kp (Bytes.of_string "original") in
  check Alcotest.bool "tampered" false (Rsa.verify kp.Rsa.pub (Bytes.of_string "tampered") s)

let rsa_reject_tampered_signature () =
  let kp = Lazy.force keypair in
  let msg = Bytes.of_string "msg" in
  let s = Rsa.sign kp msg in
  Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 1));
  check Alcotest.bool "bad sig" false (Rsa.verify kp.Rsa.pub msg s)

let rsa_reject_wrong_key () =
  let kp = Lazy.force keypair and kp2 = Lazy.force keypair2 in
  let msg = Bytes.of_string "msg" in
  let s = Rsa.sign kp msg in
  check Alcotest.bool "wrong key" false (Rsa.verify kp2.Rsa.pub msg s)

let rsa_signature_length () =
  let kp = Lazy.force keypair in
  let s = Rsa.sign kp (Bytes.of_string "x") in
  check Alcotest.int "length = modulus bytes" 64 (Bytes.length s)

let rsa_small_keys_work () =
  let kp = Rsa.generate (Rng.create 5) ~bits:128 in
  let msg = Bytes.of_string "tiny key" in
  check Alcotest.bool "verifies" true (Rsa.verify kp.Rsa.pub msg (Rsa.sign kp msg))

let rsa_fingerprint_stable () =
  let kp = Lazy.force keypair in
  check Alcotest.string "fingerprint deterministic" (Rsa.fingerprint kp.Rsa.pub)
    (Rsa.fingerprint kp.Rsa.pub)

let rsa_deterministic_signature () =
  let kp = Lazy.force keypair in
  let msg = Bytes.of_string "same" in
  check Alcotest.bytes "same signature" (Rsa.sign kp msg) (Rsa.sign kp msg)

(* --- Signer --- *)

let signer_roundtrip mode name =
  let kp = Signer.generate (Rng.create 9) ~mode in
  let pub = Signer.public kp in
  let msg = Bytes.of_string "payload" in
  let s = Signer.sign kp msg in
  check Alcotest.bool (name ^ " verifies") true (Signer.verify pub msg s);
  check Alcotest.bool (name ^ " rejects tampered") false
    (Signer.verify pub (Bytes.of_string "other") s)

let signer_rsa () = signer_roundtrip (`Rsa 256) "rsa"
let signer_insecure () = signer_roundtrip `Insecure "insecure"

let signer_keys_distinct () =
  let a = Signer.generate (Rng.create 1) ~mode:`Insecure in
  let b = Signer.generate (Rng.create 2) ~mode:`Insecure in
  check Alcotest.bool "publics differ" false
    (Signer.equal_public (Signer.public a) (Signer.public b))

let signer_cross_key_fails () =
  let a = Signer.generate (Rng.create 1) ~mode:`Insecure in
  let b = Signer.generate (Rng.create 2) ~mode:`Insecure in
  let msg = Bytes.of_string "m" in
  check Alcotest.bool "cross verify fails" false
    (Signer.verify (Signer.public b) msg (Signer.sign a msg))

let suite =
  ( "crypto",
    [
      "sha1 FIPS vectors" => sha1_vectors;
      "sha1 million a" => sha1_million_a;
      "sha256 FIPS vectors" => sha256_vectors;
      "sha256 million a" => sha256_million_a;
      "padding boundaries" => padding_boundaries;
      "distinct inputs" => sha_distinct_inputs;
      QCheck_alcotest.to_alcotest hex_matches_printf;
      QCheck_alcotest.to_alcotest digest_string_matches_bytes;
      "rsa sign/verify" => rsa_sign_verify;
      "rsa rejects tampered message" => rsa_reject_tampered_message;
      "rsa rejects tampered signature" => rsa_reject_tampered_signature;
      "rsa rejects wrong key" => rsa_reject_wrong_key;
      "rsa signature length" => rsa_signature_length;
      "rsa small keys" => rsa_small_keys_work;
      "rsa fingerprint stable" => rsa_fingerprint_stable;
      "rsa deterministic signature" => rsa_deterministic_signature;
      "signer rsa mode" => signer_rsa;
      "signer insecure mode" => signer_insecure;
      "signer keys distinct" => signer_keys_distinct;
      "signer cross-key fails" => signer_cross_key_fails;
    ] )
