type t = { mutable n : int }

let create () = { n = 0 }
let incr t = t.n <- t.n + 1

let add t n =
  if n < 0 then invalid_arg "Counter.add: counters are monotonic";
  t.n <- t.n + n

let value t = t.n
let reset t = t.n <- 0
