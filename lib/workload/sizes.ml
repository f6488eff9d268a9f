module Rng = Past_stdext.Rng
module Dist = Past_stdext.Dist

type t = Rng.t -> int

let clamp ~lo ~hi x = Stdlib.max lo (Stdlib.min hi x)

let heavy_tailed ~mu ~sigma ~tail_prob ~tail_min ~tail_alpha ~cap rng =
  let v =
    if Rng.chance rng tail_prob then Dist.pareto rng ~alpha:tail_alpha ~x_min:tail_min
    else Dist.lognormal rng ~mu ~sigma
  in
  clamp ~lo:1 ~hi:cap (int_of_float v)

let web_proxy () =
  heavy_tailed ~mu:8.35 ~sigma:1.5 ~tail_prob:0.03 ~tail_min:40_000.0 ~tail_alpha:1.1
    ~cap:5_000_000

let filesystem () =
  heavy_tailed ~mu:9.6 ~sigma:2.0 ~tail_prob:0.05 ~tail_min:200_000.0 ~tail_alpha:1.05
    ~cap:50_000_000

let custom sample = sample
let draw t rng = t rng
