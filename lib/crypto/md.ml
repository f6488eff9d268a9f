(* The Merkle-Damgard driver shared by SHA-1 and SHA-256 (FIPS 180):
   feed 64-byte blocks to [compress], pad, and serialise the 32-bit
   state words big-endian.

   Whole blocks are compressed in place from the input; only the padded
   tail is copied: one block, or two when the bytes after the last full
   block leave less room than the 9 that the 0x80 marker and the 64-bit
   length need. Every buffer is allocated per call, so digests may run
   on several domains at once. *)

let digest ~compress h w msg =
  let len = Bytes.length msg in
  let full = len / 64 in
  for blk = 0 to full - 1 do
    compress h w msg (blk * 64)
  done;
  (* Padding: 0x80, zeros, then the 64-bit big-endian bit length. *)
  let rest = len - (full * 64) in
  let tail = Bytes.make (if rest + 9 <= 64 then 64 else 128) '\000' in
  Bytes.blit msg (full * 64) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (Bytes.length tail - 8) (Int64.of_int (len * 8));
  compress h w tail 0;
  if Bytes.length tail = 128 then compress h w tail 64;
  let out = Bytes.create (4 * Array.length h) in
  for i = 0 to Array.length h - 1 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int h.(i))
  done;
  out
