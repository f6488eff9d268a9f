(* Big-integer reference arithmetic on ids, for tests only: the exact
   ring distances that [Id.closer], [Id.cw_compare] and the leaf set are
   checked against, and wrapping offsets that build adjacent ids. Any
   width that is a multiple of 8 works, fileIds included. *)

module Id = Past_id.Id
module Nat = Past_bignum.Nat

let to_nat id = Nat.of_bytes_be (Id.to_bytes id)
let modulus width = Nat.shift_left Nat.one width

(* Reduced modulo 2^width. *)
let of_nat ~width n =
  Id.of_bytes (Nat.to_bytes_be ~width:(width / 8) (Nat.rem n (modulus width)))

(* Clockwise (increasing, wrapping) distance from [a] to [b]. *)
let cw_distance a b =
  let na = to_nat a and nb = to_nat b in
  if Nat.compare nb na >= 0 then Nat.sub nb na else Nat.sub (Nat.add (modulus (Id.bits a)) nb) na

(* Circular distance: the shorter way round. *)
let distance a b =
  let d = cw_distance a b in
  let wrap = Nat.sub (modulus (Id.bits a)) d in
  if Nat.compare d wrap <= 0 then d else wrap

(* Walking clockwise from [a] to [b], do we pass [x]? Half-open: [a]
   is in, [b] is out; [a = b] is the whole ring. *)
let is_between_cw a x b =
  Id.equal a b || Nat.compare (cw_distance a x) (cw_distance a b) < 0

let closer ~target x y =
  let c = Nat.compare (distance target x) (distance target y) in
  if c <> 0 then c else Id.compare x y

let cw_compare ~from x y = Nat.compare (cw_distance from x) (cw_distance from y)

(* Wrapping addition of a (possibly negative) small offset. *)
let add_int id delta =
  let width = Id.bits id in
  let m = modulus width in
  let d = Nat.rem (Nat.of_int (abs delta)) m in
  let n = to_nat id in
  of_nat ~width (if delta >= 0 then Nat.add n d else Nat.sub (Nat.add n m) d)
