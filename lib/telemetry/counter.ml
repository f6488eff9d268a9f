type t = { mutable n : int }

let create () = { n = 0 }
let incr t = t.n <- t.n + 1
let value t = t.n
