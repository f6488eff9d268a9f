module Id = Past_id.Id
module Net = Past_simnet.Net
module PNode = Past_pastry.Node
module Rng = Past_stdext.Rng
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter
module Trace = Past_telemetry.Trace

type insert_state = {
  name : string;
  data : string;
  declared_size : int option;
  k : int;
  attempt : int;
  op : int; (* causal span spanning all attempts of this insert *)
  cert : Certificate.file;
  mutable receipts : Certificate.store_receipt list;
  mutable nacks : int;
  mutable settled : bool;
  cb : insert_result -> unit;
}

and insert_result =
  | Inserted of { file_id : Id.t; receipts : Certificate.store_receipt list; attempts : int }
  | Insert_failed of { attempts : int; reason : string }

type lookup_state = {
  mutable lk_settled : bool;
  mutable retries_left : int;
  mutable lk_attempt : int;
  mutable lk_retry_pending : bool;  (* a backed-off re-send is scheduled *)
  lk_op : int; (* causal span spanning all attempts *)
  lk_cb : lookup_result -> unit;
}

and lookup_result =
  | Found of {
      cert : Certificate.file;
      data : string;
      hops : int;
      dist : float;
      server : Past_pastry.Peer.t;
    }
  | Lookup_failed

type reclaim_state = {
  mutable rc_receipts : Certificate.reclaim_receipt list;
  mutable rc_settled : bool;
  mutable rc_credited : int;
  credit : bool; (* false for internal cleanup of failed inserts *)
  expected : int option;
  rc_cb : reclaim_result -> unit;
}

and reclaim_result = { receipts : Certificate.reclaim_receipt list; credited : int }

type audit_state = {
  expected_proof : string;
  mutable au_settled : bool;
  au_cb : bool -> unit;
}

type t = {
  card : Smartcard.t;
  node : Node.t;
  tag : int;
  rng : Rng.t;
  op_timeout : float;
  max_insert_attempts : int;
  verify : bool;
  inserts : insert_state Id.Table.t; (* by file_id *)
  lookups : lookup_state Id.Table.t;
  reclaims : reclaim_state Id.Table.t;
  audits : (string, audit_state) Hashtbl.t; (* by nonce *)
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
   span; the span id travels on the wire in [client_ref.op] and as the
   [parent] of every route the operation launches. Ids are minted
   whether or not tracing is on — minting draws no randomness and
   branches nothing, so enabling the trace ring can never change a
   run's behaviour. *)
let span_start t ~op_name ~detail =
  let span = Trace.new_span_id t.tracer in
  Trace.record t.tracer ~time:(now t)
    ~node:(PNode.addr (Node.pastry t.node))
    (Trace.Span_start { span; parent = Trace.no_parent; op = op_name; detail });
  span

let span_end t span ~note =
  Trace.record t.tracer ~time:(now t)
    ~node:(PNode.addr (Node.pastry t.node))
    (Trace.Span_end { span; note })

let span_point t span name =
  if Trace.enabled t.tracer then
    Trace.record t.tracer ~time:(now t)
      ~node:(PNode.addr (Node.pastry t.node))
      (Trace.Point { span; name })

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

let rec start_insert_attempt t state =
  let cert = state.cert in
  Id.Table.replace t.inserts cert.Certificate.file_id state;
  Node.route_client_op t.node ~parent:state.op
    ~key:(Id.prefix_of_file_id cert.Certificate.file_id)
    (Wire.Insert { cert; data = state.data; client = client_ref t ~op:state.op });
  let file_id = cert.Certificate.file_id in
  Net.schedule (net t) ~delay:t.op_timeout (fun () ->
      match Id.Table.find_opt t.inserts file_id with
      | Some s when (not s.settled) && s.attempt = state.attempt ->
        finish_insert_attempt t s ~timed_out:true
      | _ -> ())

and finish_insert_attempt t state ~timed_out =
  if not state.settled then begin
    let cert = state.cert in
    let file_id = cert.Certificate.file_id in
    let ok = distinct_receipts state.receipts in
    if List.length ok >= state.k && state.nacks = 0 then begin
      state.settled <- true;
      Id.Table.remove t.inserts file_id;
      state.cb (Inserted { file_id; receipts = ok; attempts = state.attempt })
    end
    else if timed_out || state.nacks > 0 then begin
      state.settled <- true;
      Id.Table.remove t.inserts file_id;
      (* Clean up whatever copies were stored under this fileId. The
         receipts are not credited: the whole attempt's debit is
         refunded at the end instead. *)
      if state.receipts <> [] then begin
        Id.Table.replace t.reclaims file_id
          {
            rc_receipts = [];
            rc_settled = false;
            rc_credited = 0;
            credit = false;
            expected = Some (List.length state.receipts);
            rc_cb = (fun _ -> ());
          };
        let rc = Smartcard.issue_reclaim_certificate t.card ~file_id ~now:(now t) in
        Node.route_client_op t.node ~parent:state.op ~key:(Id.prefix_of_file_id file_id)
          (Wire.Reclaim { rc; client = client_ref t ~op:state.op })
      end;
      if state.attempt < t.max_insert_attempts then begin
        (* File diversion (§2.3): a fresh salt gives a fresh fileId in a
           different part of the ring. *)
        match
          Smartcard.reissue_file_certificate t.card ~name:state.name ~data:state.data
            ?declared_size:state.declared_size ~replication:state.k ~now:(now t) ()
        with
        | Ok cert' ->
          Counter.incr t.c_insert_retries;
          span_point t state.op "insert_retry";
          let next =
            {
              state with
              cert = cert';
              attempt = state.attempt + 1;
              receipts = [];
              nacks = 0;
              settled = false;
            }
          in
          Net.schedule (net t)
            ~delay:(backoff_delay t ~failures:state.attempt)
            (fun () -> start_insert_attempt t next)
        | Error (Smartcard.Quota_exceeded _) ->
          Smartcard.refund_failed_insert t.card cert ~copies_not_stored:state.k;
          state.cb (Insert_failed { attempts = state.attempt; reason = "quota exhausted" })
      end
      else begin
        Smartcard.refund_failed_insert t.card cert ~copies_not_stored:state.k;
        state.cb
          (Insert_failed
             {
               attempts = state.attempt;
               reason = (if timed_out then "timeout" else "storage refused");
             })
      end
    end
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
    let cb r =
      span_end t op
        ~note:
          (match r with
          | Inserted { attempts; _ } -> Printf.sprintf "inserted after %d attempt(s)" attempts
          | Insert_failed { reason; _ } -> reason);
      cb r
    in
    start_insert_attempt t
      {
        name;
        data;
        declared_size;
        k;
        attempt = 1;
        op;
        cert;
        receipts = [];
        nacks = 0;
        settled = false;
        cb;
      }

(* --- lookup ------------------------------------------------------------ *)

let rec send_lookup t file_id state =
  let attempt = state.lk_attempt in
  Id.Table.replace t.lookups file_id state;
  Node.route_client_op t.node ~parent:state.lk_op ~key:(Id.prefix_of_file_id file_id)
    (Wire.Lookup { file_id; client = client_ref t ~op:state.lk_op });
  (* The timer belongs to this lookup's attempt alone: a later lookup
     of the same file by this client replaces the table entry, and an
     earlier lookup's timer must not fail it. *)
  Net.schedule (net t) ~delay:t.op_timeout (fun () ->
      match Id.Table.find_opt t.lookups file_id with
      | Some s when s == state && (not s.lk_settled) && s.lk_attempt = attempt ->
        lookup_failed_attempt t file_id s
      | _ -> ())

and lookup_failed_attempt t file_id state =
  (* [lk_retry_pending] keeps a stale timeout timer or a late
     Lookup_miss from double-consuming retries while a backed-off
     re-send is already in flight. *)
  if (not state.lk_settled) && not state.lk_retry_pending then begin
    if state.retries_left > 0 then begin
      state.retries_left <- state.retries_left - 1;
      Counter.incr t.c_lookup_retries;
      span_point t state.lk_op "lookup_retry";
      state.lk_retry_pending <- true;
      Net.schedule (net t)
        ~delay:(backoff_delay t ~failures:state.lk_attempt)
        (fun () ->
          if not state.lk_settled then begin
            state.lk_retry_pending <- false;
            state.lk_attempt <- state.lk_attempt + 1;
            send_lookup t file_id state
          end)
    end
    else begin
      state.lk_settled <- true;
      Id.Table.remove t.lookups file_id;
      state.lk_cb Lookup_failed
    end
  end

let lookup t ?(retries = 0) ~file_id cb =
  let op = span_start t ~op_name:"lookup" ~detail:(Id.short file_id) in
  let cb r =
    span_end t op ~note:(match r with Found _ -> "found" | Lookup_failed -> "failed");
    cb r
  in
  send_lookup t file_id
    { lk_settled = false; retries_left = retries; lk_attempt = 1; lk_retry_pending = false;
      lk_op = op; lk_cb = cb }

(* --- reclaim ----------------------------------------------------------- *)

let finish_reclaim t file_id state =
  if not state.rc_settled then begin
    state.rc_settled <- true;
    Id.Table.remove t.reclaims file_id;
    state.rc_cb { receipts = List.rev state.rc_receipts; credited = state.rc_credited }
  end

let reclaim t ~file_id ?expected cb =
  let op = span_start t ~op_name:"reclaim" ~detail:(Id.short file_id) in
  let cb (r : reclaim_result) =
    span_end t op ~note:(Printf.sprintf "%d receipt(s)" (List.length r.receipts));
    cb r
  in
  let state =
    { rc_receipts = []; rc_settled = false; rc_credited = 0; credit = true; expected; rc_cb = cb }
  in
  Id.Table.replace t.reclaims file_id state;
  let rc = Smartcard.issue_reclaim_certificate t.card ~file_id ~now:(now t) in
  Node.route_client_op t.node ~parent:op ~key:(Id.prefix_of_file_id file_id)
    (Wire.Reclaim { rc; client = client_ref t ~op });
  Net.schedule (net t) ~delay:t.op_timeout (fun () ->
      match Id.Table.find_opt t.reclaims file_id with
      | Some s when s == state && not s.rc_settled -> finish_reclaim t file_id s
      | _ -> ())

(* --- audits (§2.1: "nodes are randomly audited to see if they can
   produce files they are supposed to store") ---------------------------- *)

let audit t ~file_id ~data ~holder cb =
  let nonce = Past_crypto.Hex.of_bytes (Rng.bytes t.rng 8) in
  let expected_proof =
    Past_crypto.Hex.of_bytes (Past_crypto.Sha1.digest_string (nonce ^ data))
  in
  let state = { expected_proof; au_settled = false; au_cb = cb } in
  Hashtbl.replace t.audits nonce state;
  PNode.send_direct (Node.pastry t.node) ~dst:holder
    (Wire.Audit_challenge { file_id; nonce; client = client_ref t ~op:Trace.no_parent });
  Net.schedule (net t) ~delay:t.op_timeout (fun () ->
      match Hashtbl.find_opt t.audits nonce with
      | Some s when not s.au_settled ->
        s.au_settled <- true;
        Hashtbl.remove t.audits nonce;
        s.au_cb false
      | _ -> ())

(* --- dispatch of replies arriving at our access node ------------------- *)

let dispatch t (msg : Wire.t) =
  match msg with
  | Wire.Replica_ack { file_id; receipt } -> (
    match Id.Table.find_opt t.inserts file_id with
    | Some state when not state.settled ->
      if (not t.verify) || Certificate.verify_store_receipt receipt then begin
        state.receipts <- receipt :: state.receipts;
        if List.length (distinct_receipts state.receipts) >= state.k then
          finish_insert_attempt t state ~timed_out:false
      end
    | _ -> ())
  | Wire.Replica_nack { file_id; _ } -> (
    match Id.Table.find_opt t.inserts file_id with
    | Some state when not state.settled ->
      state.nacks <- state.nacks + 1;
      finish_insert_attempt t state ~timed_out:false
    | _ -> ())
  | Wire.Lookup_hit { cert; data; hops; dist; server } -> (
    let file_id = cert.Certificate.file_id in
    match Id.Table.find_opt t.lookups file_id with
    | Some state when not state.lk_settled ->
      (* Client-side integrity check (§2.1): the certificate travels
         with the file and authenticates the content. Disabled for
         simulation-scale runs with placeholder payloads. *)
      if
        (not t.verify)
        || (Certificate.verify_file cert && Certificate.file_matches_content cert data)
      then begin
        state.lk_settled <- true;
        Id.Table.remove t.lookups file_id;
        state.lk_cb (Found { cert; data; hops; dist; server })
      end
    | _ -> ())
  | Wire.Lookup_miss { file_id } -> (
    match Id.Table.find_opt t.lookups file_id with
    | Some state -> lookup_failed_attempt t file_id state
    | None -> ())
  | Wire.Reclaim_ack { receipt } -> (
    let file_id = receipt.Certificate.rr_file_id in
    match Id.Table.find_opt t.reclaims file_id with
    | Some state when not state.rc_settled ->
      state.rc_receipts <- receipt :: state.rc_receipts;
      if state.credit && Smartcard.credit_reclaim_receipt t.card receipt then
        state.rc_credited <- state.rc_credited + receipt.Certificate.freed;
      (match state.expected with
      | Some n when List.length state.rc_receipts >= n -> finish_reclaim t file_id state
      | _ -> ())
    | _ -> ())
  | Wire.Reclaim_nack _ -> ()
  | Wire.Audit_proof { nonce; proof; _ } -> (
    match Hashtbl.find_opt t.audits nonce with
    | Some state when not state.au_settled ->
      state.au_settled <- true;
      Hashtbl.remove t.audits nonce;
      state.au_cb (String.equal proof state.expected_proof)
    | _ -> ())
  | Wire.Insert _ | Wire.Store_replica _ | Wire.Divert_store _ | Wire.Divert_ack _
  | Wire.Divert_nack _ | Wire.Lookup _ | Wire.Fetch _ | Wire.Fetch_reply _ | Wire.Fetch_miss _
  | Wire.Reclaim _ | Wire.Reclaim_exec _ | Wire.Cache_offer _ | Wire.Replica_offer _
  | Wire.Replica_want _ | Wire.Replicate _ | Wire.Audit_challenge _ | Wire.To_client _ ->
    (* node-to-node traffic; never addressed to a client *)
    ()

let create ~card ~access ?(op_timeout = 50_000.0) ?(max_insert_attempts = 3) ?(verify = true)
    ~rng () =
  let reg = Net.registry (PNode.net (Node.pastry access)) in
  let rec t =
    lazy
      {
        card;
        node = access;
        tag = Node.register_client access (fun msg -> dispatch (Lazy.force t) msg);
        rng;
        op_timeout;
        max_insert_attempts;
        verify;
        inserts = Id.Table.create 8;
        lookups = Id.Table.create 8;
        reclaims = Id.Table.create 8;
        audits = Hashtbl.create 8;
        tracer = Registry.tracer reg;
        c_insert_retries = Registry.counter reg "past.client.insert_retries";
        c_lookup_retries = Registry.counter reg "past.client.lookup_retries";
      }
  in
  Lazy.force t

(* --- synchronous wrappers ---------------------------------------------- *)

(* Step the network until [settled] or the queue drains. A call still
   open after [max_events] events fails naming [op]: returning would
   pass it off as a drained queue. *)
let max_events = 50_000_000

let run_until t ~op settled =
  let rec go events =
    if not (settled ()) then
      if events >= max_events then
        failwith (Printf.sprintf "Client.%s: not settled after %d events" op events)
      else if Net.step (net t) then go (events + 1)
  in
  go 0

let insert_sync t ~name ~data ?declared_size ~k () =
  let result = ref None in
  insert t ~name ~data ?declared_size ~k (fun r -> result := Some r);
  run_until t ~op:"insert_sync" (fun () -> !result <> None);
  match !result with
  | Some r -> r
  | None -> Insert_failed { attempts = 0; reason = "event queue exhausted" }

let lookup_sync t ?retries ~file_id () =
  let result = ref None in
  lookup t ?retries ~file_id (fun r -> result := Some r);
  run_until t ~op:"lookup_sync" (fun () -> !result <> None);
  match !result with Some r -> r | None -> Lookup_failed

let audit_sync t ~file_id ~data ~holder () =
  let result = ref None in
  audit t ~file_id ~data ~holder (fun ok -> result := Some ok);
  run_until t ~op:"audit_sync" (fun () -> !result <> None);
  Option.value ~default:false !result

let reclaim_sync t ~file_id ?expected () =
  let result = ref None in
  reclaim t ~file_id ?expected (fun r -> result := Some r);
  run_until t ~op:"reclaim_sync" (fun () -> !result <> None);
  match !result with Some r -> r | None -> { receipts = []; credited = 0 }
