module Rng = Past_stdext.Rng
module Dist = Past_stdext.Dist

type t = Rng.t -> int

let normal_truncated ~mean ~cv =
  if mean < 1 then invalid_arg "Capacities.normal_truncated: mean must be >= 1";
  if cv < 0.0 then invalid_arg "Capacities.normal_truncated: cv must be >= 0";
  let m = float_of_int mean in
  let lo = Stdlib.max 1 (mean / 10) and hi = mean * 10 in
  fun rng ->
    let v = int_of_float (Dist.normal rng ~mean:m ~stddev:(cv *. m)) in
    Stdlib.max lo (Stdlib.min hi v)

let draw t rng = t rng
