module Nat = Past_bignum.Nat
module Rng = Past_stdext.Rng

(* Immutable big-endian byte string. The width is implied by the
   length; all binary operations check widths agree. *)
type t = string

let bits (t : t) = 8 * String.length t
let node_bits = 128
let file_bits = 160

let check_width name w =
  if w <= 0 || w mod 8 <> 0 then
    invalid_arg (Printf.sprintf "%s: width must be a positive multiple of 8 (got %d)" name w)

let of_bytes b : t = Bytes.to_string b
let to_bytes (t : t) = Bytes.of_string t

let zero ~width =
  check_width "Id.zero" width;
  String.make (width / 8) '\000'

let of_hex ~width s =
  check_width "Id.of_hex" width;
  let n = Nat.of_hex s in
  if Nat.num_bits n > width then
    invalid_arg
      (Printf.sprintf "Id.of_hex: value exceeds width (%d hex digits for %d bits)" (String.length s)
         width);
  Bytes.to_string (Nat.to_bytes_be ~width:(width / 8) n)

let to_hex (t : t) = Past_crypto.Hex.of_prefix t (String.length t)
let short (t : t) = Past_crypto.Hex.of_prefix t (Stdlib.min 4 (String.length t))

let random rng ~width =
  check_width "Id.random" width;
  Bytes.to_string (Rng.bytes rng (width / 8))

let node_id_of_key key =
  let digest = Past_crypto.Sha256.digest_string key in
  Bytes.sub_string digest 0 (node_bits / 8)

let file_id_of_key ~name ~owner_key ~salt =
  let material = Printf.sprintf "fileid:%s:%s:%s" name owner_key salt in
  Bytes.to_string (Past_crypto.Sha1.digest_string material)

let file_id ~name ~owner ~salt =
  file_id_of_key ~name ~owner_key:(Past_crypto.Rsa.public_to_string owner) ~salt

let prefix_of_file_id (t : t) =
  if bits t < node_bits then
    invalid_arg
      (Printf.sprintf "Id.prefix_of_file_id: id too short (%d bits, need %d)" (bits t) node_bits);
  String.sub t 0 (node_bits / 8)

(* The checks below run on every id comparison: they are inlined, and
   the message is built out of line. *)
let width_mismatch name (a : t) (b : t) =
  invalid_arg (Printf.sprintf "%s: width mismatch (%d vs %d bits)" name (bits a) (bits b))

let[@inline] same_width name (a : t) (b : t) =
  if String.length a <> String.length b then width_mismatch name a b

let compare (a : t) (b : t) =
  same_width "Id.compare" a b;
  String.compare a b

let equal a b = compare a b = 0
let hash (t : t) = Hashtbl.hash t

let bad_b name b = invalid_arg (Printf.sprintf "%s: b must be 1, 2, 4 or 8 (got %d)" name b)
let[@inline] check_b name b = if b <> 1 && b <> 2 && b <> 4 && b <> 8 then bad_b name b

(* log2 of a valid b (1, 2, 4, 8 -> 0, 1, 2, 3): digit arithmetic is
   shifts and masks, with no division. *)
let[@inline] log2_b b = (b lsr 1) - (b lsr 3)

let digit ~b (t : t) i =
  check_b "Id.digit" b;
  let lg = log2_b b in
  let n = bits t lsr lg in
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Id.digit: index %d out of range for b = %d (%d digits)" i b n);
  (* 2^(3 - lg) digits per byte; digit i sits in byte i / 2^(3 - lg). *)
  let v = Char.code (String.unsafe_get t (i lsr (3 - lg))) in
  let slot = i land ((1 lsl (3 - lg)) - 1) in
  (v lsr (8 - (b * (slot + 1)))) land ((1 lsl b) - 1)

(* The loops below run on every learned peer and every routed hop, so
   they are top-level functions taking their free variables as
   arguments: a local closure over [x], [y] or [n] would be
   heap-allocated on every call. *)
let rec first_diff_byte (x : t) (y : t) n i =
  if i < n && String.unsafe_get x i = String.unsafe_get y i then first_diff_byte x y n (i + 1)
  else i

(* Leading zero bits of a nonzero byte. *)
let rec byte_clz v z = if v land 0x80 <> 0 then z else byte_clz (v lsl 1) (z + 1)

(* Digits are b-bit groups aligned within bytes (b divides 8), so the
   shared digits are the shared leading bits divided by b; the shared
   bits end at the first set bit of the first differing byte's xor. *)
let shared_prefix_digits ~b (x : t) (y : t) =
  same_width "Id.shared_prefix_digits" x y;
  check_b "Id.shared_prefix_digits" b;
  let n = String.length x in
  let i = first_diff_byte x y n 0 in
  if i = n then (8 * n) lsr log2_b b
  else
    let d = Char.code (String.unsafe_get x i) lxor Char.code (String.unsafe_get y i) in
    ((8 * i) + byte_clz d 0) lsr log2_b b

(* --- ring arithmetic on routing ids -------------------------------------

   Routing ids are 128 bits: a nodeId, or the 128 most significant bits
   of a fileId (paper §2.2). Each operand is read as two 64-bit words,
   high first, and a distance is a two-word difference with a borrow.
   Each comparison keeps its int64 values inside one function body, the
   helpers below being inlined into it: without flambda, an int64
   passed to a call that is not inlined is boxed, and these comparisons
   run on every routed hop and every leaf-set offer. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let[@inline] word (t : t) i = if big_endian () then get64u t i else bswap64 (get64u t i)

(* Unsigned order on int64: flipping the sign bit maps it onto the
   signed order. *)
let[@inline] ult (a : int64) (b : int64) =
  Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int

(* Three-way unsigned comparison of two-word values, 0 on equality. *)
let[@inline] compare_words (ah : int64) (al : int64) (bh : int64) (bl : int64) =
  if ah <> bh then if ult ah bh then -1 else 1
  else if al <> bl then if ult al bl then -1 else 1
  else 0

let bad_routing_width name (t : t) =
  invalid_arg (Printf.sprintf "%s: routing ids are %d bits (got %d)" name node_bits (bits t))

let[@inline] check_routing name (a : t) (b : t) (c : t) =
  let n = node_bits / 8 in
  if String.length a <> n then bad_routing_width name a;
  if String.length b <> n then bad_routing_width name b;
  if String.length c <> n then bad_routing_width name c

(* Ring distance min(e, −e) over e = (u − target) mod 2^128, where −e
   is taken when e's top bit is set: the sign mask s is all ones then,
   and −e = (e xor s) − s with a carry into the high word when the low
   word is 0. 2^127 is its own negation. *)
let closer ~target x y =
  check_routing "Id.closer" target x y;
  let th = word target 0 and tl = word target 8 in
  let xl = word x 8 and yl = word y 8 in
  let xh = Int64.sub (Int64.sub (word x 0) th) (if ult xl tl then 1L else 0L)
  and yh = Int64.sub (Int64.sub (word y 0) th) (if ult yl tl then 1L else 0L) in
  let xl = Int64.sub xl tl and yl = Int64.sub yl tl in
  let sx = Int64.shift_right xh 63 and sy = Int64.shift_right yh 63 in
  let xh = Int64.sub (Int64.logxor xh sx) (if xl = 0L then sx else 0L)
  and yh = Int64.sub (Int64.logxor yh sy) (if yl = 0L then sy else 0L) in
  let xl = Int64.sub (Int64.logxor xl sx) sx and yl = Int64.sub (Int64.logxor yl sy) sy in
  let c = compare_words xh xl yh yl in
  if c <> 0 then c else String.compare x y

let cw_compare ~from x y =
  check_routing "Id.cw_compare" from x y;
  let fh = word from 0 and fl = word from 8 in
  let xl = word x 8 and yl = word y 8 in
  let xh = Int64.sub (Int64.sub (word x 0) fh) (if ult xl fl then 1L else 0L)
  and yh = Int64.sub (Int64.sub (word y 0) fh) (if ult yl fl then 1L else 0L) in
  compare_words xh (Int64.sub xl fl) yh (Int64.sub yl fl)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
