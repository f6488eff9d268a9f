(* Fixed-cost distribution summary: exact count/sum/min/max plus a
   bounded reservoir (Vitter's algorithm R) for percentile export. The
   reservoir's replacement choices use a private LCG so histograms stay
   deterministic and independent of the simulation's RNG streams.

   [observe] runs once per simulated message, so it stores nothing
   boxed: the running sum and extremes sit in an all-float record
   (fields stored flat) and the 64-bit LCG state in an 8-byte buffer
   read and written with the unboxed bytes primitives. *)

type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

type t = {
  reservoir : float array;
  mutable kept : int;
  mutable count : int;
  m : moments;
  state : Bytes.t;
  mutable sorted : (int * float array) option;
      (* sorted copy of the reservoir, tagged with the count it was
         built at *)
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let capacity = 1024

let create () =
  let state = Bytes.create 8 in
  set64 state 0 0x9E3779B97F4A7C15L;
  {
    reservoir = Array.make capacity 0.0;
    kept = 0;
    count = 0;
    m = { sum = 0.0; lo = Float.infinity; hi = Float.neg_infinity };
    state;
    sorted = None;
  }

(* SplitMix-style step; only used to pick reservoir slots. *)
let next_int t bound =
  let state =
    Int64.add (Int64.mul (get64 t.state 0) 6364136223846793005L) 1442695040888963407L
  in
  set64 t.state 0 state;
  let bits = Int64.to_int (Int64.shift_right_logical state 17) in
  bits mod bound

let observe t x =
  let m = t.m in
  t.count <- t.count + 1;
  m.sum <- m.sum +. x;
  if x < m.lo then m.lo <- x;
  if x > m.hi then m.hi <- x;
  if t.kept < Array.length t.reservoir then begin
    t.reservoir.(t.kept) <- x;
    t.kept <- t.kept + 1
  end
  else begin
    let j = next_int t t.count in
    if j < Array.length t.reservoir then t.reservoir.(j) <- x
  end

let observe_int t x = observe t (float_of_int x)
let count t = t.count
let sum t = t.m.sum
let mean t = if t.count = 0 then 0.0 else t.m.sum /. float_of_int t.count
let min t = if t.count = 0 then 0.0 else t.m.lo
let max t = if t.count = 0 then 0.0 else t.m.hi

let sorted_reservoir t =
  match t.sorted with
  | Some (at, a) when at = t.count -> a
  | _ ->
    let a = Array.sub t.reservoir 0 t.kept in
    Array.sort Float.compare a;
    t.sorted <- Some (t.count, a);
    a

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  let a = sorted_reservoir t in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
  end

type summary = {
  s_count : int;
  s_sum : float;
  s_mean : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

let summary t =
  {
    s_count = count t;
    s_sum = sum t;
    s_mean = mean t;
    s_min = min t;
    s_max = max t;
    s_p50 = percentile t 50.0;
    s_p90 = percentile t 90.0;
    s_p99 = percentile t 99.0;
  }

let reset t =
  (* [state] is deliberately not reset: reset clears the data, not the
     LCG position. *)
  t.kept <- 0;
  t.count <- 0;
  t.m.sum <- 0.0;
  t.m.lo <- Float.infinity;
  t.m.hi <- Float.neg_infinity;
  t.sorted <- None
