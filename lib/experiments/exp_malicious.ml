(* EXP8 — randomized routing around malicious nodes (paper claim C6).

   "the routing is actually randomized ... In the event of a malicious
   or failed node along the path, the query may have to be repeated
   several times by the client, until a route is chosen that avoids the
   bad node" — §2.2 "Fault-tolerance"; §2.1 requires that "individual
   malicious nodes must be incapable of persistently denying service to
   a client".

   Malicious nodes accept messages and silently drop them. We compare
   deterministic routing (repeats take the same route, so retries never
   help) against randomized routing with 1..5 attempts. *)

module Overlay = Past_pastry.Overlay
module Node = Past_pastry.Node
module Id = Past_id.Id
module Config = Past_pastry.Config
module Rng = Past_stdext.Rng
module Text_table = Past_stdext.Text_table

type params = {
  n : int;
  fractions : float list;  (** fraction of malicious nodes *)
  lookups : int;
  max_retries : int;
  seed : int;
}

let default_params =
  { n = 1000; fractions = [ 0.05; 0.1; 0.2; 0.3 ]; lookups = 500; max_retries = 5; seed = 29 }

type row = {
  fraction : float;
  det_success : float;  (** deterministic, single attempt, repeated: same route *)
  rand_success : float array;  (** index a: success within a+1 randomized attempts *)
}

type result = { rows : row list; max_retries : int }

(* Marks ⌊fraction·N⌋ nodes malicious, sampled with [rng]. *)
let mark_malicious overlay rng ~fraction =
  let nodes = Overlay.nodes overlay in
  let bad = int_of_float (fraction *. float_of_int (Array.length nodes)) in
  List.iter
    (fun i -> Node.set_malicious nodes.(i) true)
    (Rng.sample_without_replacement rng bad (Array.length nodes))

let build params ~randomized ~fraction seed =
  let config = { Config.default with Config.randomized_routing = randomized } in
  let overlay : Harness.probe Overlay.t = Overlay.create ~config ~seed () in
  Overlay.build_static overlay ~n:params.n;
  mark_malicious overlay (Overlay.rng overlay) ~fraction;
  overlay

(* One lookup attempt from an honest source: the hop count if the
   message reached the correct live node, [None] otherwise. *)
let attempt overlay key =
  let delivered = ref None in
  let truth = Overlay.closest_live_node overlay key in
  Overlay.install_apps overlay (fun node ->
      {
        Harness.null_app with
        Node.deliver =
          (fun ~key:_ _ info ->
            if Node.addr node = Node.addr truth && not (Node.malicious node) then
              delivered := Some info.Node.hops);
      });
  let rec pick_honest () =
    let src = Overlay.random_live_node overlay in
    if Node.malicious src then pick_honest () else src
  in
  Node.route (pick_honest ()) ~key ();
  Overlay.run overlay;
  !delivered

let run params =
  let rows =
    List.map
      (fun fraction ->
        (* Deterministic: retries repeat the same path, so a single
           attempt's success rate is also the eventual one. *)
        let det = build params ~randomized:false ~fraction (params.seed + 1) in
        let det_ok = ref 0 in
        let rng = Rng.create (params.seed + 100) in
        for _ = 1 to params.lookups do
          let key = Id.random rng ~width:Id.node_bits in
          if attempt det key <> None then incr det_ok
        done;
        (* Randomized: a client retries up to max_retries times. *)
        let rand = build params ~randomized:true ~fraction (params.seed + 2) in
        let rand_ok = Array.make params.max_retries 0 in
        let rng = Rng.create (params.seed + 200) in
        for _ = 1 to params.lookups do
          let key = Id.random rng ~width:Id.node_bits in
          let rec try_from a =
            if a < params.max_retries then begin
              if attempt rand key <> None then
                for b = a to params.max_retries - 1 do
                  rand_ok.(b) <- rand_ok.(b) + 1
                done
              else try_from (a + 1)
            end
          in
          try_from 0
        done;
        {
          fraction;
          det_success = float_of_int !det_ok /. float_of_int params.lookups;
          rand_success =
            Array.map (fun c -> float_of_int c /. float_of_int params.lookups) rand_ok;
        })
      params.fractions
  in
  { rows; max_retries = params.max_retries }

let table { rows; max_retries } =
  let headers =
    [ "malicious fraction"; "deterministic (any #retries)" ]
    @ List.init max_retries (fun i -> Printf.sprintf "randomized <=%d tries" (i + 1))
  in
  let t = Text_table.create headers in
  List.iter
    (fun r ->
      let cells =
        [ Printf.sprintf "%.0f%%" (100.0 *. r.fraction);
          Printf.sprintf "%.1f%%" (100.0 *. r.det_success) ]
        @ (Array.to_list r.rand_success
          |> List.map (fun s -> Printf.sprintf "%.1f%%" (100.0 *. s)))
      in
      Text_table.add_row t cells)
    rows;
  t
