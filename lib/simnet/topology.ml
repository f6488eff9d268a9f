module Rng = Past_stdext.Rng

type location = Point2 of float * float | Ts of { transit : int; stub : int; jitter : float }
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

let sample t rng =
  match t with
  | Plane -> Point2 (Rng.float rng side, Rng.float rng side)
  | Transit_stub ->
    Ts
      {
        transit = Rng.int rng transit_domains;
        stub = Rng.int rng stubs_per_transit;
        jitter = Rng.float rng 1.0;
      }

let proximity t a b =
  match (t, a, b) with
  | Plane, Point2 (x1, y1), Point2 (x2, y2) ->
    let dx = x1 -. x2 and dy = y1 -. y2 in
    sqrt ((dx *. dx) +. (dy *. dy))
  | ( Transit_stub,
      Ts { transit = t1; stub = s1; jitter = j1 },
      Ts { transit = t2; stub = s2; jitter = j2 } ) ->
    let jitter = Float.abs (j1 -. j2) in
    if t1 = t2 && s1 = s2 then intra_stub +. jitter
    else if t1 = t2 then intra_stub +. (2.0 *. stub_to_transit) +. jitter
    else intra_stub +. (2.0 *. stub_to_transit) +. inter_transit +. jitter
  | _ -> invalid_arg "Topology.proximity: location from a different topology"

let max_proximity = function
  | Plane -> side *. sqrt 2.0
  | Transit_stub -> intra_stub +. (2.0 *. stub_to_transit) +. inter_transit +. 1.0
