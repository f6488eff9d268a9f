(* Layer replays, run only in the traced run and fed from the
   workload's own generated inputs: each drives one layer alone so its
   cost can be read without the rest of the system around it. *)

module Overlay = Past_pastry.Overlay
module PNode = Past_pastry.Node
module Store = Past_core.Store
module Cert = Past_core.Certificate
module Signer = Past_crypto.Signer
module Wheel = Past_stdext.Timing_wheel
module Rng = Past_stdext.Rng

let per_op_ns t0 ops = Int64.to_float (Int64.sub (Common.now_ns ()) t0) /. float_of_int (Stdlib.max 1 ops)

(* pastry: the workload's lookup keys routed through Node.route +
   Overlay.run on a bare overlay (no PAST) of the same N and topology.
   Returns µs per route. *)
let route tr ~n ?topology ~seed keys =
  if Array.length keys = 0 then 0.0
  else begin
    let ov : unit Overlay.t =
      Tracer.span tr "replay.route.build" (fun () ->
          let ov = Overlay.create ?topology ~trace_capacity:Workloads.trace_capacity ~seed () in
          Overlay.build_static ov ~n;
          ov)
    in
    Overlay.install_apps ov (fun _ ->
        {
          PNode.deliver = (fun ~key:_ _ _ -> ());
          forward = (fun ~key:_ _ _ -> `Continue);
          on_direct = (fun ~from:_ _ -> ());
          on_leaf_change = (fun () -> ());
        });
    let nodes = Overlay.nodes ov in
    let rng = Rng.create seed in
    let origins = Array.map (fun _ -> nodes.(Rng.int rng (Array.length nodes))) keys in
    let t0 = Common.now_ns () in
    Tracer.span tr "replay.route" (fun () ->
        Array.iteri
          (fun i key ->
            PNode.route origins.(i) ~key ();
            Overlay.run ov)
          keys);
    per_op_ns t0 (Array.length keys) /. 1e3
  end

(* store: a standalone Store on the workload's backend; puts of the
   workload's declared sizes, then removes in shuffled order. Returns
   (µs per put, µs per remove). *)
let store tr ~backend ~seed sizes =
  let m = Stdlib.min 20_000 (Array.length sizes) in
  let keypair = Signer.generate (Rng.create seed) ~mode:`Insecure in
  let certs =
    Array.init m (fun i ->
        Cert.make_file ~keypair ~owner:(Signer.public keypair)
          ~owner_endorsement:(Bytes.of_string "pastbench")
          ~name:(Printf.sprintf "replay-%d" i) ~data:"" ~declared_size:sizes.(i) ~replication:3
          ~salt:"replay" ~now:0.0 ())
  in
  let order = Array.init m Fun.id in
  Rng.shuffle (Rng.create (seed + 1)) order;
  let st = Store.create ~capacity:max_int ~backend () in
  let t0 = Common.now_ns () in
  Tracer.span tr "replay.store.put" (fun () ->
      Array.iter
        (fun cert ->
          match Store.put st ~cert ~data:"" ~kind:Store.Primary with
          | Ok () -> ()
          | Error `Refused -> failwith "store replay: put refused with unbounded capacity")
        certs;
      Store.flush st);
  let put_us = per_op_ns t0 m /. 1e3 in
  let t1 = Common.now_ns () in
  Tracer.span tr "replay.store.remove" (fun () ->
      Array.iter
        (fun i ->
          if Store.remove st certs.(i).Cert.file_id = None then
            failwith "store replay: remove of a stored file found nothing")
        order;
      Store.flush st);
  let remove_us = per_op_ns t1 m /. 1e3 in
  Store.close st;
  (put_us, remove_us)

(* stdext: timing-wheel pop+push cycles at a fixed pending-set size,
   ~1 event per tick as in the simulator. Returns ns per cycle. *)
type ev = { time : float; seq : int }

let wheel tr ~pending ~ops ~seed =
  let rng = Rng.create seed in
  let inc = Array.init 65536 (fun _ -> Rng.float rng (float_of_int pending)) in
  let w = Wheel.create () in
  let seq = ref 0 in
  let push time =
    Wheel.push w ~time ~seq:!seq { time; seq = !seq };
    incr seq
  in
  for i = 1 to pending do
    push inc.(i land 65535)
  done;
  let t0 = Common.now_ns () in
  Tracer.span tr "replay.wheel" (fun () ->
      for i = 1 to ops do
        match Wheel.pop w with
        | Some e -> push (e.time +. Array.unsafe_get inc (i land 65535))
        | None -> failwith "wheel replay: queue ran dry"
      done);
  per_op_ns t0 ops
