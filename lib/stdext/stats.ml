type t = {
  mutable samples : float list;
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable sorted : float array option; (* cache, invalidated on add *)
}

let create () = { samples = []; n = 0; sum = 0.0; sum_sq = 0.0; sorted = None }

let add t x =
  t.samples <- x :: t.samples;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  t.sorted <- None

let add_int t x = add t (float_of_int x)
let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let m = mean t in
    let var = (t.sum_sq /. float_of_int t.n) -. (m *. m) in
    sqrt (Float.max var 0.0)

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let min t =
  if t.n = 0 then invalid_arg "Stats.min: empty";
  (sorted t).(0)

let max t =
  if t.n = 0 then invalid_arg "Stats.max: empty";
  let a = sorted t in
  a.(Array.length a - 1)

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = sorted t in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
  let idx = Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)) in
  a.(idx)

let median t = percentile t 50.0
let to_list t = List.rev t.samples
