module Nat = Past_bignum.Nat
module Rng = Past_stdext.Rng

(* Immutable big-endian byte string. The width is implied by the
   length; all binary operations check widths agree. *)
type t = string

let bits (t : t) = 8 * String.length t
let node_bits = 128
let file_bits = 160

let check_width name w =
  if w <= 0 || w mod 8 <> 0 then invalid_arg (name ^ ": width must be a positive multiple of 8")

let of_bytes b : t = Bytes.to_string b
let to_bytes (t : t) = Bytes.of_string t

let zero ~width =
  check_width "Id.zero" width;
  String.make (width / 8) '\000'

let max_id ~width =
  check_width "Id.max_id" width;
  String.make (width / 8) '\255'

let of_hex ~width s =
  check_width "Id.of_hex" width;
  let n = Nat.of_hex s in
  if Nat.num_bits n > width then invalid_arg "Id.of_hex: value exceeds width";
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
  if bits t < node_bits then invalid_arg "Id.prefix_of_file_id: id too short";
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

let to_nat (t : t) = Nat.of_bytes_be (Bytes.of_string t)

let of_nat ~width n =
  check_width "Id.of_nat" width;
  let modulus = Nat.shift_left Nat.one width in
  let n = Nat.rem n modulus in
  Bytes.to_string (Nat.to_bytes_be ~width:(width / 8) n)

let linear_distance a b =
  same_width "Id.linear_distance" a b;
  let na = to_nat a and nb = to_nat b in
  if Nat.compare na nb >= 0 then Nat.sub na nb else Nat.sub nb na

let distance a b =
  let d = linear_distance a b in
  let modulus = Nat.shift_left Nat.one (bits a) in
  let wrap = Nat.sub modulus d in
  if Nat.compare d wrap <= 0 then d else wrap

let cw_distance a b =
  same_width "Id.cw_distance" a b;
  let na = to_nat a and nb = to_nat b in
  if Nat.compare nb na >= 0 then Nat.sub nb na
  else Nat.sub (Nat.add (Nat.shift_left Nat.one (bits a)) nb) na

let is_between_cw a x b =
  (* Walking clockwise from a to b (half-open [a, b)): x is inside iff
     cw(a,x) < cw(a,b). When a = b the arc covers the whole ring. *)
  if equal a b then true else Nat.compare (cw_distance a x) (cw_distance a b) < 0

(* (b - a) mod 2^bits as big-endian bytes: byte-wise subtraction with
   borrow, no big-integer allocation. *)
let cw_dist_key (a : t) (b : t) =
  same_width "Id.cw_dist_key" a b;
  let n = String.length a in
  let out = Bytes.create n in
  let borrow = ref 0 in
  for i = n - 1 downto 0 do
    let d = Char.code b.[i] - Char.code a.[i] - !borrow in
    if d < 0 then begin
      Bytes.unsafe_set out i (Char.unsafe_chr (d + 256));
      borrow := 1
    end
    else begin
      Bytes.unsafe_set out i (Char.unsafe_chr d);
      borrow := 0
    end
  done;
  Bytes.unsafe_to_string out

(* Top (up to) seven bytes of [cw_dist_key a b] packed big-endian into
   a nonnegative int, without allocating the key. The borrow into the
   packed region is 1 exactly when b's remaining suffix is
   lexicographically (= numerically, big-endian) below a's. *)
let rec suffix_lt (a : t) (b : t) n i =
  i < n
  &&
  let c = Char.code (String.unsafe_get b i) - Char.code (String.unsafe_get a i) in
  c < 0 || (c = 0 && suffix_lt a b n (i + 1))

let cw_dist_hi7 (a : t) (b : t) =
  same_width "Id.cw_dist_hi7" a b;
  let n = String.length a in
  let k = if n < 7 then n else 7 in
  let borrow = if suffix_lt a b n k then 1 else 0 in
  let hb = ref 0 and ha = ref 0 in
  for i = 0 to k - 1 do
    hb := (!hb lsl 8) lor Char.code (String.unsafe_get b i);
    ha := (!ha lsl 8) lor Char.code (String.unsafe_get a i)
  done;
  (!hb - !ha - borrow) land ((1 lsl (8 * k)) - 1)

(* Top (up to) seven bytes of [ring_dist_key a b], likewise packed and
   allocation-free. One three-way suffix comparison yields both the
   borrow into the packed region (suffix of b below suffix of a) and —
   when the suffixes are equal, i.e. the low bytes of e = b - a are all
   zero — the carry that two's-complement negation propagates into the
   top bytes of -e. *)
let rec suffix_cmp (a : t) (b : t) n i =
  if i = n then 0
  else
    let c = Char.code (String.unsafe_get b i) - Char.code (String.unsafe_get a i) in
    if c <> 0 then c else suffix_cmp a b n (i + 1)

let ring_dist_hi7 (a : t) (b : t) =
  same_width "Id.ring_dist_hi7" a b;
  let n = String.length a in
  let k = if n < 7 then n else 7 in
  let c = suffix_cmp a b n k in
  let borrow = if c < 0 then 1 else 0 in
  let hb = ref 0 and ha = ref 0 in
  for i = 0 to k - 1 do
    hb := (!hb lsl 8) lor Char.code (String.unsafe_get b i);
    ha := (!ha lsl 8) lor Char.code (String.unsafe_get a i)
  done;
  let mask = (1 lsl (8 * k)) - 1 in
  let e = (!hb - !ha - borrow) land mask in
  (* The sign bit of the full e is the top bit of its leading byte,
     which the packed int always contains. *)
  if e land (1 lsl ((8 * k) - 1)) = 0 then e
  else (lnot e + (if c = 0 then 1 else 0)) land mask

(* Two's-complement negation in place: -e mod 2^bits. *)
let negate_in_place buf =
  let n = Bytes.length buf in
  let carry = ref 1 in
  for i = n - 1 downto 0 do
    let v = (Char.code (Bytes.get buf i) lxor 0xFF) + !carry in
    Bytes.unsafe_set buf i (Char.unsafe_chr (v land 0xFF));
    carry := v lsr 8
  done

let ring_dist_key (a : t) (b : t) =
  let e = Bytes.unsafe_of_string (cw_dist_key a b) in
  (* min(e, -e): if the top bit is set, -e is smaller (e = 2^(bits-1)
     maps to itself under negation, so the branch is still correct). *)
  if Bytes.length e > 0 && Char.code (Bytes.get e 0) >= 0x80 then negate_in_place e;
  Bytes.unsafe_to_string e

let dist_key_le_sum d a b =
  if String.length a <> String.length b || String.length a <> String.length d then
    invalid_arg "Id.dist_key_le_sum: width mismatch";
  let n = String.length a in
  let sum = Bytes.create n in
  let carry = ref 0 in
  for i = n - 1 downto 0 do
    let v = Char.code a.[i] + Char.code b.[i] + !carry in
    Bytes.unsafe_set sum i (Char.unsafe_chr (v land 0xFF));
    carry := v lsr 8
  done;
  (* A carry out means the sum exceeds any d. *)
  !carry = 1 || String.compare d (Bytes.unsafe_to_string sum) <= 0

(* Allocation-free ring-distance comparison.

   [ring_dist_key target u] is min(e, -e) over e = (u - target) mod
   2^bits; every leaf-set / replica-set sort comparison used to
   materialize two such key strings. Instead we precompute, per
   operand, two bit masks over byte indices — the borrow chain of the
   subtraction and the carry chain of the two's-complement negation —
   plus the would-negate bit, packed into one OCaml int (bits [0,n):
   borrow into byte i; bits [n,2n): +1 carry into byte i of -e; bit
   2n: key is -e). Key bytes are then streamed most-significant first
   and compared without touching the heap. *)

let rec closer_masks (target : t) (u : t) n i borrow all_zero bmask zmask =
  (* [borrow] feeds byte [i]; [all_zero] = bytes (i, n-1] of e are 0. *)
  let bmask = if borrow <> 0 then bmask lor (1 lsl i) else bmask in
  let zmask = if all_zero then zmask lor (1 lsl i) else zmask in
  let d = Char.code (String.unsafe_get u i) - Char.code (String.unsafe_get target i) - borrow in
  let e = d land 0xff in
  if i = 0 then bmask lor (zmask lsl n) lor (if e >= 0x80 then 1 lsl (2 * n) else 0)
  else closer_masks target u n (i - 1) (if d < 0 then 1 else 0) (all_zero && e = 0) bmask zmask

let[@inline] closer_key_byte (target : t) (u : t) n masks i =
  let b = (masks lsr i) land 1 in
  let e = (Char.code (String.unsafe_get u i) - Char.code (String.unsafe_get target i) - b) land 0xff in
  if (masks lsr (2 * n)) land 1 = 1 then (lnot e + ((masks lsr (n + i)) land 1)) land 0xff else e

let rec closer_loop target x y n mx my i =
  if i = n then compare x y
  else begin
    let kx = closer_key_byte target x n mx i and ky = closer_key_byte target y n my i in
    if kx <> ky then kx - ky else closer_loop target x y n mx my (i + 1)
  end

let closer ~target x y =
  same_width "Id.closer" target x;
  same_width "Id.closer" target y;
  let n = String.length target in
  if n > 30 then begin
    (* Masks no longer fit one int: fall back to materialized keys. *)
    let c = String.compare (ring_dist_key target x) (ring_dist_key target y) in
    if c <> 0 then c else compare x y
  end
  else
    closer_loop target x y n
      (closer_masks target x n (n - 1) 0 true 0 0)
      (closer_masks target y n (n - 1) 0 true 0 0)
      0

(* Big-integer reference implementation, kept as the oracle the
   property tests check [closer] against. *)
let closer_oracle ~target x y =
  let c = Nat.compare (distance target x) (distance target y) in
  if c <> 0 then c else compare x y

let add_int (t : t) delta =
  let modulus = Nat.shift_left Nat.one (bits t) in
  let n = to_nat t in
  let n' =
    if delta >= 0 then Nat.rem (Nat.add n (Nat.of_int delta)) modulus
    else begin
      let d = Nat.rem (Nat.of_int (-delta)) modulus in
      if Nat.compare n d >= 0 then Nat.sub n d else Nat.sub (Nat.add n modulus) d
    end
  in
  of_nat ~width:(bits t) n'

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
