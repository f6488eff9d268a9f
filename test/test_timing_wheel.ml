(* Timing-wheel scheduler: equivalence oracle against the binary heap.

   The wheel's whole contract is "same pop order as the heap, cheaper":
   every test here builds the same trace in both structures and demands
   bit-identical (time, seq) pop sequences — including tick collisions,
   interleaved push/pop, and far-future timers that land in the
   overflow store. *)

module Heap = Past_stdext.Heap
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

(* Times wider than level 0 (so levels 1-2 cascade) and duplicate
   (time, seq)-adjacent events. *)
let multi_level_cascade () =
  let rng = Rng.create 11 in
  equivalent "cascade trace" (random_events rng 3000 ~horizon:3_000_000.0)

(* Interleaved push/pop: the wheel must stay equivalent when the
   frontier advances mid-stream, including pushes at-or-before the
   current frontier (the simulator's zero-delay self-sends). *)
let interleaved_push_pop () =
  let rng = Rng.create 42 in
  let h = Heap.create ~leq and w = Wheel.create () in
  let seq = ref 0 in
  let clock = ref 0.0 in
  let popped_h = ref [] and popped_w = ref [] in
  for _ = 1 to 5000 do
    if Rng.int rng 3 > 0 || Heap.is_empty h then begin
      (* Push relative to the last popped time, occasionally exactly at
         it (delta 0) and occasionally far ahead. *)
      let delta =
        match Rng.int rng 10 with
        | 0 -> 0.0
        | 1 -> Rng.float rng 100_000.0
        | _ -> Rng.float rng 300.0
      in
      let e = { time = !clock +. delta; seq = !seq } in
      incr seq;
      Heap.push h e;
      Wheel.push w ~time:e.time ~seq:e.seq e
    end
    else begin
      let a = Heap.pop h and b = Wheel.pop w in
      match (a, b) with
      | Some a, Some b ->
        if a.seq <> b.seq then
          Alcotest.failf "interleaved: heap popped %s, wheel %s" (pp_ev a) (pp_ev b);
        clock := a.time;
        popped_h := a :: !popped_h;
        popped_w := b :: !popped_w
      | _ -> Alcotest.fail "interleaved: one structure empty"
    end
  done;
  check_same_order "interleaved tail" (drain_heap h) (drain_wheel w)

(* Far-future pathology (overflow store): sparse timers far beyond the
   wheel's top span mixed into dense near-term traffic. Insertion must
   not degrade (they go to overflow buckets, not a scan), the dense
   phase must drain normally, and the sparse tail must come out in
   order via epoch drains and empty-window skips. *)
let far_future_overflow () =
  let rng = Rng.create 7 in
  let dense = random_events rng 5000 ~horizon:10_000.0 in
  let sparse =
    List.init 20 (fun i ->
        (* Up to ~1e12 ticks: tens of thousands of epochs past the top
           span (2^24 ticks), in random order. *)
        { time = 1e7 +. Rng.float rng 1e12; seq = 10_000 + i })
  in
  (* Interleave so overflow inserts happen while the dense window is
     still hot. *)
  let mixed =
    List.concat (List.map2 (fun d s -> [ d; s ]) (List.filteri (fun i _ -> i < 20) dense) sparse)
    @ List.filteri (fun i _ -> i >= 20) dense
  in
  equivalent "far-future overflow" mixed

(* A single timer in the far future: the drain must skip the empty
   horizon in epoch-sized hops, not tick by tick. *)
let lone_far_timer () =
  let w = Wheel.create () in
  let e = { time = 9.0e11; seq = 0 } in
  Wheel.push w ~time:e.time ~seq:e.seq e;
  (match Wheel.pop w with
  | Some got -> check Alcotest.int "lone timer pops" e.seq got.seq
  | None -> Alcotest.fail "lone timer lost");
  check Alcotest.bool "empty after" true (Wheel.is_empty w)

(* Epoch-boundary re-insertion: events whose delta equals the top
   span exactly when an overflow bucket drains must re-place into a
   wheel level, not back into overflow (the off-by-one this guards
   was a real design bug). *)
let epoch_boundary () =
  let span = float_of_int (1 lsl 24) in
  let events =
    List.init 64 (fun seq -> { time = span *. float_of_int (1 + (seq mod 5)); seq })
  in
  equivalent "epoch boundaries" events

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
      "multi-level cascade" => multi_level_cascade;
      "interleaved push/pop" => interleaved_push_pop;
      "far-future overflow" => far_future_overflow;
      "lone far timer" => lone_far_timer;
      "epoch boundary re-insertion" => epoch_boundary;
      "rejects bad times" => rejects_bad_times;
      QCheck_alcotest.to_alcotest qcheck_equivalence;
    ] )
