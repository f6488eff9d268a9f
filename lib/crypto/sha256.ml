(* 32-bit arithmetic on native 63-bit ints, masking where a value must
   stay a 32-bit word. [Md] feeds the blocks and pads. *)

let m32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]

(* For a 32-bit [x], [x lor (x lsl 32)] holds x twice, so bits n..n+31
   of it are x rotated right by n (n <= 31; the lost bit 63 is never
   read). The three rotations of each sigma are three shifts of that
   doubled word and one mask. *)
let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)) land m32

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)) land m32

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  (((xx lsr 7) lxor (xx lsr 18)) land m32) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  (((xx lsr 17) lxor (xx lsr 19)) land m32) lxor (x lsr 10)

(* Compress the 64-byte block of [data] at [off] into the state [h],
   using [w] (64 words) as the message schedule. *)
let compress h w data off =
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be data (off + (4 * t))) land m32)
  done;
  for t = 16 to 63 do
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16)
       + small_sigma0 (Array.unsafe_get w (t - 15))
       + Array.unsafe_get w (t - 7)
       + small_sigma1 (Array.unsafe_get w (t - 2)))
      land m32)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  for t = 0 to 63 do
    let ch = !g lxor (!e land (!f lxor !g)) in
    let temp1 = !hh + big_sigma1 !e + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    let temp2 = big_sigma0 !a + maj in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land m32;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land m32
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land m32);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land m32);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land m32);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land m32);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land m32);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land m32);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land m32);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land m32)

let digest_bytes msg =
  Md.digest ~compress
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
       0x5be0cd19 |]
    (Array.make 64 0) msg

(* The kernel only reads its argument, so the string is not copied. *)
let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
let digest_hex s = Hex.of_bytes (digest_string s)
