(* Shared plumbing: the host clock, growable sample buffers, the
   simulated-outcome digest and the per-run recorder every workload
   reports into. *)

module Client = Past_core.Client
module Cert = Past_core.Certificate
module Id = Past_id.Id

(* Host wall time in nanoseconds (CLOCK_MONOTONIC, the clock the OCaml
   runtime also stamps its Runtime_events with). *)
let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

type size = Full | Tiny

(* --- growable float buffer ------------------------------------------ *)

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank percentile, [q] in [0, 1]; nan when empty. *)
  let percentile t q =
    if t.n = 0 then nan
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Float.compare a;
      let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      a.(Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)))
    end
end

(* --- simulated-outcome digest --------------------------------------- *)

(* Order-sensitive 62-bit mix of every simulated outcome (result kind,
   fileId, hops, sim time). Two runs of one commit and seed must end
   with the same value. *)
let mix h v = ((h * 1_000_003) lxor v) land 0x3fff_ffff_ffff_ffff

let mix_float h f = mix h (Hashtbl.hash (Int64.bits_of_float f))

(* --- per-run recorder ----------------------------------------------- *)

type kind = Lookup | Insert | Reclaim

let kind_index = function Lookup -> 0 | Insert -> 1 | Reclaim -> 2
let kind_name = function Lookup -> "lookup" | Insert -> "insert" | Reclaim -> "reclaim"
let kinds = [ Lookup; Insert; Reclaim ]

type recorder = {
  lat : Samples.t array;  (** host ns per [*_sync] call, by kind *)
  issued : int array;  (** client ops issued, by kind *)
  refused : int array;  (** ops that settled refused or timed out, by kind *)
  mutable completed : int;  (** client ops settled, either way *)
  mutable wrong : int;  (** outcomes that break a PAST guarantee *)
  mutable violations : string list;  (** the first few, for the report *)
  mutable digest : int;
  mutable found : int;
  mutable found_hops : int;
  lookup_keys : Id.t Queue.t;  (** routing keys, for the route replay *)
}

let recorder () =
  {
    lat = Array.init 3 (fun _ -> Samples.create ());
    issued = Array.make 3 0;
    refused = Array.make 3 0;
    completed = 0;
    wrong = 0;
    violations = [];
    digest = 0;
    found = 0;
    found_hops = 0;
    lookup_keys = Queue.create ();
  }

let violation r msg =
  r.wrong <- r.wrong + 1;
  if List.length r.violations < 8 then r.violations <- msg :: r.violations

let attempted r = Array.fold_left ( + ) 0 r.issued
let failed r = Array.fold_left ( + ) 0 r.refused
let note_issue r kind = r.issued.(kind_index kind) <- r.issued.(kind_index kind) + 1
let max_replay_keys = 20_000

(* Settle one lookup: check it, count it, digest it. *)
let lookup_outcome r ~file_id ~sim_now (res : Client.lookup_result) =
  r.completed <- r.completed + 1;
  if Queue.length r.lookup_keys < max_replay_keys then
    Queue.add (Id.prefix_of_file_id file_id) r.lookup_keys;
  match res with
  | Client.Found { cert; hops; _ } ->
    if not (Id.equal cert.Cert.file_id file_id) then
      violation r
        (Printf.sprintf "lookup of %s returned %s" (Id.short file_id) (Id.short cert.Cert.file_id));
    r.found <- r.found + 1;
    r.found_hops <- r.found_hops + hops;
    r.digest <- mix_float (mix (mix (mix r.digest 1) (Id.hash file_id)) hops) sim_now
  | Client.Lookup_failed ->
    r.refused.(0) <- r.refused.(0) + 1;
    r.digest <- mix_float (mix (mix r.digest 2) (Id.hash file_id)) sim_now

(* Settle one insert; [Some file_id] when it was stored. *)
let insert_outcome r ~k ~sim_now (res : Client.insert_result) =
  r.completed <- r.completed + 1;
  match res with
  | Client.Inserted { file_id; receipts; attempts } ->
    let nodes =
      List.sort_uniq String.compare
        (List.map
           (fun (rc : Cert.store_receipt) ->
             Past_crypto.Signer.public_to_string rc.Cert.storing_node)
           receipts)
    in
    if List.length receipts <> k || List.length nodes <> k then
      violation r
        (Printf.sprintf "insert %s acknowledged with %d receipts from %d distinct nodes (k=%d)"
           (Id.short file_id) (List.length receipts) (List.length nodes) k);
    if
      List.exists
        (fun (rc : Cert.store_receipt) -> not (Id.equal rc.Cert.sr_file_id file_id))
        receipts
    then violation r (Printf.sprintf "insert %s carries a receipt for another file" (Id.short file_id));
    r.digest <- mix_float (mix (mix (mix r.digest 3) (Id.hash file_id)) attempts) sim_now;
    Some file_id
  | Client.Insert_failed { attempts; _ } ->
    r.refused.(1) <- r.refused.(1) + 1;
    r.digest <- mix_float (mix (mix r.digest 4) attempts) sim_now;
    None

let reclaim_outcome r ~expected ~file_id ~sim_now (res : Client.reclaim_result) =
  r.completed <- r.completed + 1;
  let n = List.length res.Client.receipts in
  if
    List.exists
      (fun (rc : Cert.reclaim_receipt) -> not (Id.equal rc.Cert.rr_file_id file_id))
      res.Client.receipts
  then violation r (Printf.sprintf "reclaim %s returned a receipt for another file" (Id.short file_id));
  if n < expected then r.refused.(2) <- r.refused.(2) + 1;
  r.digest <- mix_float (mix (mix (mix r.digest 5) (Id.hash file_id)) n) sim_now

(* Time one synchronous client call into the latency buffer of [kind]. *)
let timed_call r kind f =
  note_issue r kind;
  let t0 = now_ns () in
  let res = f () in
  Samples.add r.lat.(kind_index kind) (Int64.to_float (Int64.sub (now_ns ()) t0));
  res
