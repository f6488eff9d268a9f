module Id = Past_id.Id
module Net = Past_simnet.Net
module PNode = Past_pastry.Node
module Rng = Past_stdext.Rng
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter
module Trace = Past_telemetry.Trace

type insert_result =
  | Inserted of { file_id : Id.t; receipts : Certificate.store_receipt list; attempts : int }
  | Insert_failed of { attempts : int; reason : string }

type lookup_result =
  | Found of {
      cert : Certificate.file;
      data : string;
      hops : int;
      dist : float;
      server : Past_pastry.Peer.t;
    }
  | Lookup_failed

type reclaim_result = { receipts : Certificate.reclaim_receipt list; credited : int }

(* One attempt of an insert: a retry under a fresh fileId is a fresh
   record. *)
type insert_state = {
  name : string;
  data : string;
  declared_size : int option;
  k : int;
  attempt : int;
  cert : Certificate.file;
  mutable receipts : Certificate.store_receipt list;
  mutable nacks : int;
  cb : insert_result -> unit;
}

type lookup_state = {
  file_id : Id.t;
  mutable retries_left : int;
  mutable lk_attempt : int;
  mutable retry_pending : bool;  (* a backed-off re-send is scheduled *)
  lk_cb : lookup_result -> unit;
}

type reclaim_state = {
  rc_file_id : Id.t;
  expected : int option;
  mutable rc_receipts : Certificate.reclaim_receipt list;
  mutable rc_credited : int;
  rc_cb : reclaim_result -> unit;
}

type audit_state = { nonce : string; expected_proof : string; au_cb : bool -> unit }

(* A pending operation. Each attempt files a fresh value under the
   operation's span id, and its timer acts only while that value is
   still the one filed. *)
type pending =
  | Inserting of insert_state
  | Looking_up of lookup_state
  | Reclaiming of reclaim_state
  | Auditing of audit_state

module Pending = Hashtbl.Make (Int)

type t = {
  card : Smartcard.t;
  node : Node.t;
  tag : int;
  rng : Rng.t;
  op_timeout : float;
  max_insert_attempts : int;
  verify : bool;
  pending : pending Pending.t; (* by span id *)
  (* overlay-wide retry accounting in the system's registry *)
  c_insert_retries : Counter.t;
  c_lookup_retries : Counter.t;
  tracer : Trace.t;
}

let card t = t.card
let access t = t.node
let net t = PNode.net (Node.pastry t.node)
let now t = Net.now (net t)

let client_ref t ~op = { Wire.access = PNode.self (Node.pastry t.node); tag = t.tag; op }

(* Causal spans: each client operation (all attempts included) is one
   span; the span id travels on the wire in [client_ref.op], comes back
   with every reply, and is the [parent] of every route the operation
   launches. *)
let span_start t ~op_name ~detail =
  Trace.start_span t.tracer ~time:(now t)
    ~node:(PNode.addr (Node.pastry t.node))
    ~parent:Trace.no_parent ~op:op_name detail

let trace t kind = Trace.record t.tracer ~time:(now t) ~node:(PNode.addr (Node.pastry t.node)) kind

(* Full-jitter exponential backoff: after [failures] consecutive
   failures of one operation, wait a uniform draw from
   [0, op_timeout * 2^(failures-1)] (window capped at 2^8) before
   re-sending. Fixed-interval re-sends synchronize into retry storms
   exactly when the network is struggling — under churn, every client
   whose access path broke retries in lockstep; the jitter spreads
   them out and the growing window sheds load. *)
let backoff_delay t ~failures =
  let window = t.op_timeout *. Float.of_int (1 lsl min (failures - 1) 8) in
  Rng.float t.rng window

(* --- the pending table ------------------------------------------------- *)

let current t ~op entry =
  match Pending.find_opt t.pending op with Some e -> e == entry | None -> false

(* Arm an attempt's timeout: [on_timeout] runs only if [entry] is still
   filed under [op], so a settled operation, or one that moved on to a
   later attempt, ignores it. *)
let arm t ~op entry on_timeout =
  Net.schedule (net t) ~delay:t.op_timeout (fun () -> if current t ~op entry then on_timeout ())

(* The one way an operation ends: it leaves the table, its span closes
   with [note], and its callback runs. *)
let settle t ~op ~note cb result =
  Pending.remove t.pending op;
  trace t (Trace.Span_end { span = op; note });
  cb result

(* --- insert ------------------------------------------------------------ *)

let distinct_receipts receipts =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (r : Certificate.store_receipt) ->
      let key = Past_crypto.Signer.public_to_string r.Certificate.storing_node in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    receipts

let rec send_insert t ~op entry s =
  Node.route_client_op t.node ~parent:op
    ~key:(Id.prefix_of_file_id s.cert.Certificate.file_id)
    (Wire.Insert { cert = s.cert; data = s.data; client = client_ref t ~op });
  arm t ~op entry (fun () -> finish_insert_attempt t ~op s ~timed_out:true)

and finish_insert_attempt t ~op s ~timed_out =
  let cert = s.cert in
  let file_id = cert.Certificate.file_id in
  let ok = distinct_receipts s.receipts in
  let failed reason =
    Smartcard.refund_failed_insert t.card cert ~copies_not_stored:s.k;
    settle t ~op ~note:reason s.cb (Insert_failed { attempts = s.attempt; reason })
  in
  if List.length ok >= s.k && s.nacks = 0 then
    settle t ~op
      ~note:(Printf.sprintf "inserted after %d attempt(s)" s.attempt)
      s.cb
      (Inserted { file_id; receipts = ok; attempts = s.attempt })
  else if timed_out || s.nacks > 0 then begin
    (* Clean up whatever copies were stored under this fileId. The
       reclaim is sent but not tracked: its receipts are not credited,
       as the whole attempt's debit is refunded at the end instead. *)
    if s.receipts <> [] then begin
      let rc = Smartcard.issue_reclaim_certificate t.card ~file_id ~now:(now t) in
      Node.route_client_op t.node ~parent:op ~key:(Id.prefix_of_file_id file_id)
        (Wire.Reclaim { rc; client = client_ref t ~op })
    end;
    if s.attempt < t.max_insert_attempts then begin
      (* File diversion (§2.3): a fresh salt gives a fresh fileId in a
         different part of the ring. Replies still to come for the old
         fileId no longer match the filed attempt. *)
      match
        Smartcard.reissue_file_certificate t.card ~name:s.name ~data:s.data
          ?declared_size:s.declared_size ~replication:s.k ~now:(now t) ()
      with
      | Ok cert' ->
        Counter.incr t.c_insert_retries;
        trace t (Trace.Point { span = op; name = "insert_retry" });
        let next = { s with cert = cert'; attempt = s.attempt + 1; receipts = []; nacks = 0 } in
        let entry = Inserting next in
        Pending.replace t.pending op entry;
        Net.schedule (net t)
          ~delay:(backoff_delay t ~failures:s.attempt)
          (fun () -> send_insert t ~op entry next)
      | Error (Smartcard.Quota_exceeded _) -> failed "quota exhausted"
    end
    else failed (if timed_out then "timeout" else "storage refused")
  end

let insert t ~name ~data ?declared_size ~k cb =
  if k < 1 then invalid_arg "Client.insert: k must be >= 1";
  match
    Smartcard.issue_file_certificate t.card ~name ~data ?declared_size ~replication:k ~now:(now t)
      ()
  with
  | Error (Smartcard.Quota_exceeded _) ->
    cb (Insert_failed { attempts = 0; reason = "quota exceeded" })
  | Ok cert ->
    let op = span_start t ~op_name:"insert" ~detail:name in
    let s =
      { name; data; declared_size; k; attempt = 1; cert; receipts = []; nacks = 0; cb }
    in
    let entry = Inserting s in
    Pending.replace t.pending op entry;
    send_insert t ~op entry s

(* --- lookup ------------------------------------------------------------ *)

let rec send_lookup t ~op s =
  let entry = Looking_up s in
  Pending.replace t.pending op entry;
  Node.route_client_op t.node ~parent:op ~key:(Id.prefix_of_file_id s.file_id)
    (Wire.Lookup { file_id = s.file_id; client = client_ref t ~op });
  arm t ~op entry (fun () -> lookup_failed_attempt t ~op entry s)

and lookup_failed_attempt t ~op entry s =
  (* [retry_pending] keeps a stale timeout timer or a late Lookup_miss
     from double-consuming retries while a backed-off re-send is
     already in flight. *)
  if not s.retry_pending then begin
    if s.retries_left > 0 then begin
      s.retries_left <- s.retries_left - 1;
      Counter.incr t.c_lookup_retries;
      trace t (Trace.Point { span = op; name = "lookup_retry" });
      s.retry_pending <- true;
      Net.schedule (net t)
        ~delay:(backoff_delay t ~failures:s.lk_attempt)
        (fun () ->
          if current t ~op entry then begin
            s.retry_pending <- false;
            s.lk_attempt <- s.lk_attempt + 1;
            send_lookup t ~op s
          end)
    end
    else settle t ~op ~note:"failed" s.lk_cb Lookup_failed
  end

let lookup t ?(retries = 0) ~file_id cb =
  let op = span_start t ~op_name:"lookup" ~detail:(Id.short file_id) in
  send_lookup t ~op
    { file_id; retries_left = retries; lk_attempt = 1; retry_pending = false; lk_cb = cb }

(* --- reclaim ----------------------------------------------------------- *)

let finish_reclaim t ~op s =
  settle t ~op
    ~note:(Printf.sprintf "%d receipt(s)" (List.length s.rc_receipts))
    s.rc_cb
    { receipts = List.rev s.rc_receipts; credited = s.rc_credited }

let reclaim t ~file_id ?expected cb =
  let op = span_start t ~op_name:"reclaim" ~detail:(Id.short file_id) in
  let s = { rc_file_id = file_id; expected; rc_receipts = []; rc_credited = 0; rc_cb = cb } in
  let entry = Reclaiming s in
  Pending.replace t.pending op entry;
  let rc = Smartcard.issue_reclaim_certificate t.card ~file_id ~now:(now t) in
  Node.route_client_op t.node ~parent:op ~key:(Id.prefix_of_file_id file_id)
    (Wire.Reclaim { rc; client = client_ref t ~op });
  arm t ~op entry (fun () -> finish_reclaim t ~op s)

(* --- audits (§2.1: "nodes are randomly audited to see if they can
   produce files they are supposed to store") ---------------------------- *)

let audit t ~file_id ~data ~holder cb =
  let nonce = Past_crypto.Hex.of_bytes (Rng.bytes t.rng 8) in
  let expected_proof =
    Past_crypto.Hex.of_bytes (Past_crypto.Sha1.digest_string (nonce ^ data))
  in
  let op = span_start t ~op_name:"audit" ~detail:(Id.short file_id) in
  let entry = Auditing { nonce; expected_proof; au_cb = cb } in
  Pending.replace t.pending op entry;
  PNode.send_direct (Node.pastry t.node) ~dst:holder
    (Wire.Audit_challenge { file_id; nonce; client = client_ref t ~op });
  arm t ~op entry (fun () -> settle t ~op ~note:"timed out" cb false)

(* --- dispatch of replies arriving at our access node ------------------- *)

(* A reply counts only for the operation it names, and only if it
   answers that operation's current file (or nonce): another file's
   certificate, or a late ack from an insert's earlier attempt, is
   dropped, as is any reply to a settled operation. *)
let dispatch t ~op (reply : Wire.reply) =
  match (Pending.find_opt t.pending op, reply) with
  | Some (Inserting s), Wire.Replica_ack { file_id; receipt }
    when Id.equal file_id s.cert.Certificate.file_id ->
    if (not t.verify) || Certificate.verify_store_receipt receipt then begin
      s.receipts <- receipt :: s.receipts;
      if List.length (distinct_receipts s.receipts) >= s.k then
        finish_insert_attempt t ~op s ~timed_out:false
    end
  | Some (Inserting s), Wire.Replica_nack { file_id; _ }
    when Id.equal file_id s.cert.Certificate.file_id ->
    s.nacks <- s.nacks + 1;
    finish_insert_attempt t ~op s ~timed_out:false
  | Some (Looking_up s), Wire.Lookup_hit { cert; data; hops; dist; server }
    when Id.equal cert.Certificate.file_id s.file_id ->
    (* Client-side integrity check (§2.1): the certificate travels
       with the file and authenticates the content. Disabled for
       simulation-scale runs with placeholder payloads. *)
    if
      (not t.verify)
      || (Certificate.verify_file cert && Certificate.file_matches_content cert data)
    then settle t ~op ~note:"found" s.lk_cb (Found { cert; data; hops; dist; server })
  | Some (Looking_up s as entry), Wire.Lookup_miss { file_id } when Id.equal file_id s.file_id ->
    lookup_failed_attempt t ~op entry s
  | Some (Reclaiming s), Wire.Reclaim_ack { receipt }
    when Id.equal receipt.Certificate.rr_file_id s.rc_file_id -> (
    s.rc_receipts <- receipt :: s.rc_receipts;
    if Smartcard.credit_reclaim_receipt t.card receipt then
      s.rc_credited <- s.rc_credited + receipt.Certificate.freed;
    match s.expected with
    | Some n when List.length s.rc_receipts >= n -> finish_reclaim t ~op s
    | _ -> ())
  | Some (Auditing s), Wire.Audit_proof { nonce; proof; _ } when String.equal nonce s.nonce ->
    let ok = String.equal proof s.expected_proof in
    settle t ~op ~note:(if ok then "passed" else "failed") s.au_cb ok
  | _ -> ()

let create ~card ~access ?(op_timeout = 50_000.0) ?(max_insert_attempts = 3) ?(verify = true)
    ~rng () =
  let reg = Net.registry (PNode.net (Node.pastry access)) in
  let rec t =
    lazy
      {
        card;
        node = access;
        tag = Node.register_client access (fun ~op reply -> dispatch (Lazy.force t) ~op reply);
        rng;
        op_timeout;
        max_insert_attempts;
        verify;
        pending = Pending.create 8;
        tracer = Registry.tracer reg;
        c_insert_retries = Registry.counter reg "past.client.insert_retries";
        c_lookup_retries = Registry.counter reg "past.client.lookup_retries";
      }
  in
  Lazy.force t

(* --- synchronous wrappers ---------------------------------------------- *)

(* Start an operation and step the network until its callback fires or
   the queue drains; a drained queue yields [default]. A call still
   open after [max_events] events fails naming [name]: returning would
   pass it off as a drained queue. *)
let max_events = 50_000_000

let await t ~name ~default start =
  let result = ref None in
  start (fun r -> result := Some r);
  let rec go events =
    if Option.is_none !result then
      if events >= max_events then
        failwith (Printf.sprintf "Client.%s: not settled after %d events" name events)
      else if Net.step (net t) then go (events + 1)
  in
  go 0;
  Option.value !result ~default

let insert_sync t ~name ~data ?declared_size ~k () =
  await t ~name:"insert_sync"
    ~default:(Insert_failed { attempts = 0; reason = "event queue exhausted" })
    (insert t ~name ~data ?declared_size ~k)

let lookup_sync t ?retries ~file_id () =
  await t ~name:"lookup_sync" ~default:Lookup_failed (lookup t ?retries ~file_id)

let audit_sync t ~file_id ~data ~holder () =
  await t ~name:"audit_sync" ~default:false (audit t ~file_id ~data ~holder)

let reclaim_sync t ~file_id ?expected () =
  await t ~name:"reclaim_sync" ~default:{ receipts = []; credited = 0 } (reclaim t ~file_id ?expected)
