module Rng = Past_stdext.Rng

type t = Plane | Transit_stub

(* The plane is a [side] × [side] square. *)
let side = 1000.0

(* The transit-stub hierarchy: [transit_domains] transit domains with
   [stubs_per_transit] stub domains each. *)
let transit_domains = 4
let stubs_per_transit = 8
let intra_stub = 5.0
let stub_to_transit = 20.0
let inter_transit = 50.0

let plane () = Plane
let transit_stub () = Transit_stub

(* A location is three consecutive floats: (x, y, 0) on the plane,
   (transit, stub, jitter) in the transit-stub model. *)
let stride = 3

(* The draw order — y before x; jitter, then stub, then transit — is
   part of every seed's topology: it is the order in which ocamlopt's
   right-to-left argument evaluation drew the boxed locations this
   layout replaced. *)
let sample t rng coords i =
  let o = stride * i in
  match t with
  | Plane ->
    let y = Rng.float rng side in
    let x = Rng.float rng side in
    coords.(o) <- x;
    coords.(o + 1) <- y;
    coords.(o + 2) <- 0.0
  | Transit_stub ->
    let jitter = Rng.float rng 1.0 in
    let stub = Rng.int rng stubs_per_transit in
    let transit = Rng.int rng transit_domains in
    coords.(o) <- float_of_int transit;
    coords.(o + 1) <- float_of_int stub;
    coords.(o + 2) <- jitter

let[@inline] proximity t (coords : float array) i j =
  let a = stride * i and b = stride * j in
  match t with
  | Plane ->
    let dx = coords.(a) -. coords.(b) and dy = coords.(a + 1) -. coords.(b + 1) in
    sqrt ((dx *. dx) +. (dy *. dy))
  | Transit_stub ->
    let jitter = Float.abs (coords.(a + 2) -. coords.(b + 2)) in
    if coords.(a) = coords.(b) && coords.(a + 1) = coords.(b + 1) then intra_stub +. jitter
    else if coords.(a) = coords.(b) then intra_stub +. (2.0 *. stub_to_transit) +. jitter
    else intra_stub +. (2.0 *. stub_to_transit) +. inter_transit +. jitter

let max_proximity = function
  | Plane -> side *. sqrt 2.0
  | Transit_stub -> intra_stub +. (2.0 *. stub_to_transit) +. inter_transit +. 1.0
