(* Host-speed calibration.

   The benchmark runs on shared hosts whose speed drifts by up to 1.5x
   over tens of seconds (a fixed loop, timed once a second, shows it).
   [run] is a fixed reference kernel, independent of the libraries
   under test: a small discrete-event loop (array heap of boxed events,
   hash-table state, list allocation) of constant work, ~0.5 ms. Timing
   it now and then during a measurement gives the host's speed at that
   moment relative to [reference_ns], and every reported host timing
   is rescaled to that reference speed. *)

(* Typical kernel time on a 2-vCPU x86-64 host, OCaml 5.1.1. *)
let reference_ns = 560_000.0

type ev = { at : float; id : int }

let events = 512
let rounds = 2_000

let run () =
  let heap = Array.make (events + 1) { at = 0.0; id = 0 } in
  let size = ref 0 in
  let push e =
    incr size;
    let i = ref !size in
    while !i > 1 && heap.(!i / 2).at > e.at do
      heap.(!i) <- heap.(!i / 2);
      i := !i / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(1) in
    let last = heap.(!size) in
    decr size;
    let i = ref 1 and continue = ref true in
    while !continue do
      let l = 2 * !i in
      if l > !size then continue := false
      else begin
        let c = if l + 1 <= !size && heap.(l + 1).at < heap.(l).at then l + 1 else l in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let state = Hashtbl.create 256 in
  for id = 1 to events do
    push { at = float_of_int ((id * 7919) mod 1009); id }
  done;
  let acc = ref [] in
  for r = 1 to rounds do
    let e = pop () in
    let seen = Option.value ~default:0 (Hashtbl.find_opt state (e.id land 255)) in
    Hashtbl.replace state (e.id land 255) (seen + 1);
    if r land 15 = 0 then acc := [];
    acc := (e.id, e.at) :: !acc;
    push { at = e.at +. float_of_int (1 + ((r * 31 + seen) mod 97)); id = e.id }
  done;
  ignore (Sys.opaque_identity !acc)

(* Host slowness now: one kernel run's time over the reference (> 1
   means slower than the reference host). *)
let sample () =
  let t0 = Common.now_ns () in
  run ();
  Int64.to_float (Int64.sub (Common.now_ns ()) t0) /. reference_ns

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
