(* Fixed-cost distribution summary: exact count/sum/min/max plus a
   bounded reservoir (Vitter's algorithm R) for percentile export. The
   reservoir's replacement choices use a private LCG so histograms stay
   deterministic and independent of the simulation's RNG streams.

   Observations are sharded by Context (the calling domain's partition
   index): each partition of a parallel simulation window writes only
   its own shard, so [observe] is race-free without locks, and —
   because the partition an observation happens in is a property of
   the simulation, not of the worker count — the merged summary is
   identical at any parallelism. Single-threaded code only ever
   touches shard 0, which behaves exactly like the pre-sharding
   histogram (same LCG, same reservoir decisions, same percentiles).

   [observe] runs once per simulated message, so it stores nothing
   boxed: the running sum and extremes sit in an all-float record
   (fields stored flat) and the 64-bit LCG state in an 8-byte buffer
   read and written with the unboxed bytes primitives. *)

type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

type shard = {
  reservoir : float array;
  mutable kept : int;
  mutable count : int;
  m : moments;
  state : Bytes.t;
}

type t = {
  capacity : int; (* per shard *)
  shards : shard option array; (* Context.max_contexts slots, lazily filled *)
  mutable merged : (int * float array) option;
      (* sorted concat of all reservoirs, tagged with the total count it
         was built at; only read/written from the driver context. *)
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let default_capacity = 1024

let new_shard capacity =
  let state = Bytes.create 8 in
  set64 state 0 0x9E3779B97F4A7C15L;
  {
    reservoir = Array.make capacity 0.0;
    kept = 0;
    count = 0;
    m = { sum = 0.0; lo = Float.infinity; hi = Float.neg_infinity };
    state;
  }

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Histogram.create: capacity must be positive";
  let shards = Array.make Context.max_contexts None in
  shards.(0) <- Some (new_shard capacity);
  { capacity; shards; merged = None }

(* SplitMix-style step; only used to pick reservoir slots. *)
let next_int s bound =
  let state =
    Int64.add (Int64.mul (get64 s.state 0) 6364136223846793005L) 1442695040888963407L
  in
  set64 s.state 0 state;
  let bits = Int64.to_int (Int64.shift_right_logical state 17) in
  bits mod bound

let[@inline] shard_for t =
  let c = Context.current () in
  match Array.unsafe_get t.shards c with
  | Some s -> s
  | None ->
    (* Each context only ever writes its own slot, so this lazy fill
       never races. *)
    let s = new_shard t.capacity in
    t.shards.(c) <- Some s;
    s

let observe t x =
  let s = shard_for t in
  let m = s.m in
  s.count <- s.count + 1;
  m.sum <- m.sum +. x;
  if x < m.lo then m.lo <- x;
  if x > m.hi then m.hi <- x;
  if s.kept < Array.length s.reservoir then begin
    s.reservoir.(s.kept) <- x;
    s.kept <- s.kept + 1
  end
  else begin
    let j = next_int s s.count in
    if j < Array.length s.reservoir then s.reservoir.(j) <- x
  end

let observe_int t x = observe t (float_of_int x)

let fold f acc t =
  Array.fold_left (fun acc s -> match s with Some s -> f acc s | None -> acc) acc t.shards

let count t = fold (fun acc s -> acc + s.count) 0 t
let sum t = fold (fun acc s -> acc +. s.m.sum) 0.0 t
let mean t = let n = count t in if n = 0 then 0.0 else sum t /. float_of_int n
let min t = if count t = 0 then 0.0 else fold (fun acc s -> Float.min acc s.m.lo) Float.infinity t
let max t = if count t = 0 then 0.0 else fold (fun acc s -> Float.max acc s.m.hi) Float.neg_infinity t

(* Sorted concatenation of every shard's reservoir, cached against the
   total observation count. Only the export path (driver context) calls
   this, never a partition task. *)
let sorted_reservoir t =
  let n = count t in
  match t.merged with
  | Some (at, a) when at = n -> a
  | _ ->
    let kept = fold (fun acc s -> acc + s.kept) 0 t in
    let a = Array.make kept 0.0 in
    let off = ref 0 in
    Array.iter
      (function
        | Some s ->
          Array.blit s.reservoir 0 a !off s.kept;
          off := !off + s.kept
        | None -> ())
      t.shards;
    Array.sort Float.compare a;
    t.merged <- Some (n, a);
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
  Array.iteri
    (fun i s ->
      match s with
      | Some _ when i > 0 -> t.shards.(i) <- None
      | Some s ->
        (* [state] is deliberately not reset, matching the pre-sharding
           histogram: reset clears the data, not the LCG position. *)
        s.kept <- 0;
        s.count <- 0;
        s.m.sum <- 0.0;
        s.m.lo <- Float.infinity;
        s.m.hi <- Float.neg_infinity
      | None -> ())
    t.shards;
  t.merged <- None
