(* Timing-wheel scheduler: equivalence oracle against the binary heap.

   The wheel's whole contract is "same pop order as the heap, cheaper":
   every test here builds the same trace in both structures and demands
   bit-identical (time, seq) pop sequences — including tick collisions,
   interleaved push/pop, and timers 4096 or more ticks ahead that wait
   in the far heap. *)


module Wheel = Past_stdext.Timing_wheel
module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

type ev = { time : float; seq : int }

(* The exact ordering net.ml's heap uses. *)
let leq a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq)

let drain_wheel w =
  let rec go acc = match Wheel.pop w with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

let drain_heap h =
  let rec go acc = match Heap.pop h with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

let pp_ev e = Printf.sprintf "(%g, %d)" e.time e.seq

let check_same_order msg expected got =
  check Alcotest.int (msg ^ ": length") (List.length expected) (List.length got);
  List.iteri
    (fun i (a, b) ->
      if a.seq <> b.seq || a.time <> b.time then
        Alcotest.failf "%s: pop %d differs: heap %s, wheel %s" msg i (pp_ev a) (pp_ev b))
    (List.combine expected got)

(* Push the same events into a fresh heap and a fresh wheel, drain
   both, compare. *)
let equivalent msg events =
  let h = Heap.create ~leq and w = Wheel.create () in
  List.iter
    (fun e ->
      Heap.push h e;
      Wheel.push w ~time:e.time ~seq:e.seq e)
    events;
  check_same_order msg (drain_heap h) (drain_wheel w);
  check Alcotest.bool (msg ^ ": wheel drained") true (Wheel.is_empty w)

(* The wheel's bucket count: a cell this many ticks past the frontier
   waits in the far heap, one tick fewer goes to a bucket. *)
let slots = 4096

(* A heap and a wheel driven in lockstep: every pop must agree.
   [clock] is the time of the last pop. *)
type pair = { h : ev Heap.t; w : ev Wheel.t; mutable next_seq : int; mutable clock : float }

let pair () = { h = Heap.create ~leq; w = Wheel.create (); next_seq = 0; clock = 0.0 }

let push2 p time =
  let e = { time; seq = p.next_seq } in
  p.next_seq <- p.next_seq + 1;
  Heap.push p.h e;
  Wheel.push p.w ~time ~seq:e.seq e

let pop2 msg p =
  match (Heap.pop p.h, Wheel.pop p.w) with
  | Some a, Some b ->
    if a.seq <> b.seq || a.time <> b.time then
      Alcotest.failf "%s: heap popped %s, wheel %s" msg (pp_ev a) (pp_ev b);
    p.clock <- a.time
  | None, None -> ()
  | _ -> Alcotest.failf "%s: one structure empty" msg

let finish msg p =
  check_same_order msg (drain_heap p.h) (drain_wheel p.w);
  check Alcotest.bool (msg ^ ": wheel drained") true (Wheel.is_empty p.w)

(* Random times with deliberate tick collisions: a third of the events
   get integer times so several events share a slot (and a (time, seq)
   tie needs the seq tie-break), the rest get fractional times that
   still often land in the same tick. *)
let random_events rng n ~horizon =
  List.init n (fun seq ->
      let time =
        if Rng.int rng 3 = 0 then float_of_int (Rng.int rng (int_of_float horizon))
        else Rng.float rng horizon
      in
      { time; seq })

let random_traces () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      equivalent (Printf.sprintf "trace seed %d" seed) (random_events rng 2000 ~horizon:5000.0))
    [ 1; 2; 3; 4; 5 ]

(* Times spread over 3M ticks, so most cells start in the far heap
   and move into the wheel as the frontier nears them; then clusters
   of far cells that share a tick (ties on time and on tick), so the
   frontier's hop over an empty wheel lands on several at once. *)
let far_heap_wide_horizon () =
  let rng = Rng.create 11 in
  equivalent "wide trace" (random_events rng 3000 ~horizon:3_000_000.0);
  let cluster k =
    List.map (fun frac -> (10_000.0 *. float_of_int k) +. frac) [ 0.5; 0.0; 0.99; 0.5; 0.0 ]
  in
  let times = List.concat_map cluster [ 3; 1; 7; 2; 7 ] in
  equivalent "far clusters" (List.mapi (fun seq time -> { time; seq }) times)

(* Interleaved push/pop: the wheel must stay equivalent when the
   frontier advances mid-stream, including pushes at-or-before the
   current frontier (the simulator's zero-delay self-sends). *)
let interleaved_push_pop () =
  let rng = Rng.create 42 in
  let p = pair () in
  for _ = 1 to 5000 do
    if Rng.int rng 3 > 0 || Heap.is_empty p.h then begin
      (* Push relative to the last popped time, occasionally exactly at
         it (delta 0) and occasionally far ahead. *)
      let delta =
        match Rng.int rng 10 with
        | 0 -> 0.0
        | 1 -> Rng.float rng 100_000.0
        | _ -> Rng.float rng 300.0
      in
      push2 p (p.clock +. delta)
    end
    else pop2 "interleaved" p
  done;
  finish "interleaved tail" p

(* Sparse timers far beyond the wheel's window mixed into dense
   near-term traffic: the far pushes must not disturb the dense phase,
   and the sparse tail must come out in order through frontier hops.
   Then pushes at the frontier right after each hop: at the popped
   time itself, earlier in its tick, and at the wheel's edges. *)
let far_future_timers () =
  let rng = Rng.create 7 in
  let dense = random_events rng 5000 ~horizon:10_000.0 in
  let sparse =
    List.init 20 (fun i ->
        (* Up to ~1e12 ticks, in random order. *)
        { time = 1e7 +. Rng.float rng 1e12; seq = 10_000 + i })
  in
  (* Interleave so far pushes happen while the dense window is still
     hot. *)
  let mixed =
    List.concat (List.map2 (fun d s -> [ d; s ]) (List.filteri (fun i _ -> i < 20) dense) sparse)
    @ List.filteri (fun i _ -> i >= 20) dense
  in
  equivalent "far-future timers" mixed;
  let p = pair () in
  let far k = (1e6 *. float_of_int k) +. 0.5 in
  List.iter (fun k -> push2 p (far k)) [ 4; 1; 3; 2 ];
  List.iter
    (fun k ->
      (* The pop that reaches [far k] is a hop: everything else pending
         lies within [slots] ticks of the previous one. *)
      while p.clock < far k do
        pop2 "to the hop" p
      done;
      let f = Float.of_int (int_of_float p.clock) in
      List.iter (push2 p)
        [
          p.clock; f +. 0.25; p.clock; f +. 1.0; f +. float_of_int (slots - 1); f +. float_of_int slots;
        ];
      pop2 "after hop" p;
      pop2 "after hop" p)
    [ 1; 2; 3; 4 ];
  finish "pushes after hops" p

(* A single timer in the far future: the frontier must hop straight
   to it, not scan the empty horizon tick by tick. *)
let lone_far_timer () =
  let w = Wheel.create () in
  let e = { time = 9.0e11; seq = 0 } in
  Wheel.push w ~time:e.time ~seq:e.seq e;
  (match Wheel.pop w with
  | Some got -> check Alcotest.int "lone timer pops" e.seq got.seq
  | None -> Alcotest.fail "lone timer lost");
  check Alcotest.bool "empty after" true (Wheel.is_empty w)

(* The window's edge: from non-zero frontiers (the first after a pop
   at 10,000.5), cells [slots - 1], [slots] and [slots + 1] ticks
   ahead, at and within their ticks, so the first goes to a bucket and
   the others to the far heap until the frontier moves. Then cells
   whole multiples of 2^24 apart: hops over long empty stretches, each
   landing on a tick that holds several cells. *)
let far_heap_window_edges () =
  let p = pair () in
  push2 p 10_000.5;
  pop2 "first pop" p;
  for _ = 1 to 6 do
    let f = Float.of_int (int_of_float p.clock) in
    List.iter
      (fun d ->
        List.iter (fun frac -> push2 p (f +. float_of_int d +. frac)) [ 0.0; 0.75; 0.25; 0.0 ])
      [ slots - 1; slots; slots + 1 ];
    for _ = 1 to 5 do
      pop2 "edges" p
    done
  done;
  finish "window edges" p;
  let span = float_of_int (1 lsl 24) in
  let events =
    List.init 64 (fun seq -> { time = span *. float_of_int (1 + (seq mod 5)); seq })
  in
  equivalent "2^24 multiples" events

let rejects_bad_times () =
  let w = Wheel.create () in
  Alcotest.check_raises "negative time" (Invalid_argument "Timing_wheel.push: negative or NaN time")
    (fun () -> Wheel.push w ~time:(-1.0) ~seq:0 ());
  Alcotest.check_raises "NaN time" (Invalid_argument "Timing_wheel.push: negative or NaN time")
    (fun () -> Wheel.push w ~time:Float.nan ~seq:0 ())

(* qcheck: arbitrary traces, including adversarial tick collisions. *)
let qcheck_equivalence =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 300)
        (pair (float_bound_inclusive 100_000.0) bool))
  in
  let arb = QCheck.make ~print:(fun l -> string_of_int (List.length l)) gen in
  QCheck.Test.make ~name:"wheel pops in exact heap order" ~count:200 arb (fun spec ->
      let events =
        List.mapi
          (fun seq (t, quantize) ->
            { time = (if quantize then Float.round t else t); seq })
          spec
      in
      let h = Heap.create ~leq and w = Wheel.create () in
      List.iter
        (fun e ->
          Heap.push h e;
          Wheel.push w ~time:e.time ~seq:e.seq e)
        events;
      drain_heap h = drain_wheel w)

let suite =
  ( "timing_wheel",
    [
      "random traces match heap order" => random_traces;
      "far heap over a wide horizon" => far_heap_wide_horizon;
      "interleaved push/pop" => interleaved_push_pop;
      "far timers amid dense traffic" => far_future_timers;
      "lone far timer" => lone_far_timer;
      "far heap window edges" => far_heap_window_edges;
      "rejects bad times" => rejects_bad_times;
      QCheck_alcotest.to_alcotest qcheck_equivalence;
    ] )
