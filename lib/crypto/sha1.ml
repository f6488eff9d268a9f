(* 32-bit arithmetic on native 63-bit ints, masking where a value must
   stay a 32-bit word. [Md] feeds the blocks and pads. *)

let m32 = 0xFFFFFFFF
let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land m32

(* Compress the 64-byte block of [data] at [off] into the state [h],
   using [w] (80 words) as the message schedule. Each 20-round stage
   adds its own mixing function and constant, summed as one term. *)
let compress h w data off =
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be data (off + (4 * t))) land m32)
  done;
  for t = 16 to 79 do
    Array.unsafe_set w t
      (rotl
         (Array.unsafe_get w (t - 3)
         lxor Array.unsafe_get w (t - 8)
         lxor Array.unsafe_get w (t - 14)
         lxor Array.unsafe_get w (t - 16))
         1)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) in
  for t = 0 to 79 do
    let fk =
      if t < 20 then ((!b land !c) lor (lnot !b land !d)) + 0x5A827999
      else if t < 40 then (!b lxor !c lxor !d) + 0x6ED9EBA1
      else if t < 60 then ((!b land !c) lor (!b land !d) lor (!c land !d)) + 0x8F1BBCDC
      else (!b lxor !c lxor !d) + 0xCA62C1D6
    in
    let tmp = (rotl !a 5 + fk + !e + Array.unsafe_get w t) land m32 in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land m32);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land m32);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land m32);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land m32);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land m32)

let digest_bytes msg =
  Md.digest ~compress
    [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |]
    (Array.make 80 0) msg

(* The kernel only reads its argument, so the string is not copied. *)
let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
let digest_hex s = Hex.of_bytes (digest_string s)
