module Dist = Past_stdext.Dist

type t = Dist.zipf

let zipf ~s ~n = Dist.zipf ~s ~n
let draw t rng = Dist.zipf_draw t rng - 1
