(* Byte value v renders as the precomputed character pair at [2v, 2v+1]
   of [pairs]: one table read per output character, no per-nibble
   shifting and no formatting. *)
let pairs =
  let digits = "0123456789abcdef" in
  String.init 512 (fun i ->
      let v = i / 2 in
      if i land 1 = 0 then digits.[v lsr 4] else digits.[v land 0xf])

let of_prefix s n =
  if n < 0 || n > String.length s then invalid_arg "Hex.of_prefix: length out of range";
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let v = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get pairs (2 * v));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get pairs ((2 * v) + 1))
  done;
  Bytes.unsafe_to_string out

let of_bytes b = of_prefix (Bytes.unsafe_to_string b) (Bytes.length b)
