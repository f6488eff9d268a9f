(* The four xoshiro state words live in a 32-byte buffer read and
   written with the unboxed 64-bit bytes primitives: a record of
   [mutable int64] fields would box a fresh int64 on every store, i.e.
   four allocations per draw on the simulator's per-message path. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: used only to expand the integer seed into four non-zero
   state words, as recommended by the xoshiro authors. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix_next state)
  done;
  t

let copy t = Bytes.copy t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step. Inlined into every drawing function so the
   result stays an unboxed int64 up to its final conversion. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t =
  let seed = Int64.to_int (next t) in
  create seed

let derive t ~salt =
  (* Mix all four state words so children with different salts are
     decorrelated from each other and from the parent's stream; the
     parent state is read, never advanced. *)
  let open Int64 in
  let mixed =
    logxor
      (logxor (get64 t 0) (rotl (get64 t 8) 17))
      (logxor (rotl (get64 t 16) 31) (rotl (get64 t 24) 47))
  in
  create (to_int (logxor mixed (mul (of_int salt) 0x9E3779B97F4A7C15L)))

(* Rejection sampling keeps the result exactly uniform for any bound. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.div Int64.max_int bound64) 1L in
  let r = ref (Int64.shift_right_logical (next t) 1) in
  while Int64.div !r bound64 > limit do
    r := Int64.shift_right_logical (next t) 1
  done;
  Int64.to_int (Int64.rem !r bound64)

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

(* Inlined so that a caller which only does float arithmetic with the
   draw (the jitter in [Net.send]) keeps it unboxed. *)
let[@inline] float t bound =
  (* 53 random bits scaled to [0,1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.logand (next t) 1L = 1L
let chance t p = float t 1.0 < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  (* Floyd's algorithm: O(k) expected time, no O(n) allocation. *)
  let chosen = Hashtbl.create (2 * k) in
  let acc = ref [] in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let v = if Hashtbl.mem chosen r then j else r in
    Hashtbl.replace chosen v ();
    acc := v :: !acc
  done;
  !acc

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.chr (int t 256))
  done;
  b
