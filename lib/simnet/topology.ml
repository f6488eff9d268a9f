module Rng = Past_stdext.Rng

type location =
  | Point2 of float * float
  | Point3 of float * float * float
  | Ts of { transit : int; stub : int; jitter : float }

type t =
  | Plane of float
  | Sphere of float
  | Transit_stub of {
      transit_domains : int;
      stubs_per_transit : int;
      intra_stub : float;
      stub_to_transit : float;
      inter_transit : float;
    }

let plane ?(side = 1000.0) () = Plane side
let sphere ?(radius = 1000.0) () = Sphere radius

let transit_stub ?(transit_domains = 4) ?(stubs_per_transit = 8) ?(intra_stub = 5.0)
    ?(stub_to_transit = 20.0) ?(inter_transit = 50.0) () =
  if transit_domains < 1 || stubs_per_transit < 1 then
    invalid_arg "Topology.transit_stub: domain counts must be positive";
  Transit_stub { transit_domains; stubs_per_transit; intra_stub; stub_to_transit; inter_transit }

let sample t rng =
  match t with
  | Plane side -> Point2 (Rng.float rng side, Rng.float rng side)
  | Sphere radius ->
    (* Uniform on the sphere: z uniform in [-1,1], azimuth uniform. *)
    let z = (2.0 *. Rng.float rng 1.0) -. 1.0 in
    let phi = Rng.float rng (2.0 *. Float.pi) in
    let r = sqrt (Stdlib.max 0.0 (1.0 -. (z *. z))) in
    Point3 (radius *. r *. cos phi, radius *. r *. sin phi, radius *. z)
  | Transit_stub { transit_domains; stubs_per_transit; _ } ->
    Ts
      {
        transit = Rng.int rng transit_domains;
        stub = Rng.int rng stubs_per_transit;
        jitter = Rng.float rng 1.0;
      }

let proximity t a b =
  match (t, a, b) with
  | Plane _, Point2 (x1, y1), Point2 (x2, y2) ->
    let dx = x1 -. x2 and dy = y1 -. y2 in
    sqrt ((dx *. dx) +. (dy *. dy))
  | Sphere radius, Point3 (x1, y1, z1), Point3 (x2, y2, z2) ->
    let dot = ((x1 *. x2) +. (y1 *. y2) +. (z1 *. z2)) /. (radius *. radius) in
    let dot = Stdlib.max (-1.0) (Stdlib.min 1.0 dot) in
    radius *. acos dot
  | ( Transit_stub { intra_stub; stub_to_transit; inter_transit; _ },
      Ts { transit = t1; stub = s1; jitter = j1 },
      Ts { transit = t2; stub = s2; jitter = j2 } ) ->
    let jitter = Float.abs (j1 -. j2) in
    if t1 = t2 && s1 = s2 then intra_stub +. jitter
    else if t1 = t2 then intra_stub +. (2.0 *. stub_to_transit) +. jitter
    else intra_stub +. (2.0 *. stub_to_transit) +. inter_transit +. jitter
  | _ -> invalid_arg "Topology.proximity: location from a different topology"

let max_proximity = function
  | Plane side -> side *. sqrt 2.0
  | Sphere radius -> Float.pi *. radius
  | Transit_stub { intra_stub; stub_to_transit; inter_transit; _ } ->
    intra_stub +. (2.0 *. stub_to_transit) +. inter_transit +. 1.0
