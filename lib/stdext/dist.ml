let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  let u = 1.0 -. Rng.float rng 1.0 in
  -.log u /. rate

let normal rng ~mean ~stddev =
  let u1 = 1.0 -. Rng.float rng 1.0 in
  let u2 = Rng.float rng 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~stddev:sigma)

let pareto rng ~alpha ~x_min =
  if alpha <= 0.0 || x_min <= 0.0 then invalid_arg "Dist.pareto: parameters must be positive";
  let u = 1.0 -. Rng.float rng 1.0 in
  x_min /. (u ** (1.0 /. alpha))

type zipf = { cdf : float array }

let zipf ~s ~n =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { cdf }

let zipf_draw { cdf } rng =
  let u = Rng.float rng 1.0 in
  (* Binary search for the first index with cdf >= u. *)
  let rec search lo hi =
    if lo >= hi then lo + 1
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length cdf - 1)

let zipf_pmf { cdf } rank =
  if rank < 1 || rank > Array.length cdf then invalid_arg "Dist.zipf_pmf: rank out of range";
  if rank = 1 then cdf.(0) else cdf.(rank - 1) -. cdf.(rank - 2)
