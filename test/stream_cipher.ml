module Sha256 = Past_crypto.Sha256

let derive_key ~passphrase = Bytes.to_string (Sha256.digest_string ("past-key:" ^ passphrase))

let encrypt ~key ~nonce plaintext =
  let len = String.length plaintext in
  let out = Bytes.create len in
  let block = ref Bytes.empty in
  for i = 0 to len - 1 do
    let block_index = i / 32 and offset = i mod 32 in
    if offset = 0 then
      block := Sha256.digest_string (Printf.sprintf "%s:%s:%d" key nonce block_index);
    Bytes.set out i
      (Char.chr (Char.code plaintext.[i] lxor Char.code (Bytes.get !block offset)))
  done;
  Bytes.to_string out

let decrypt = encrypt
