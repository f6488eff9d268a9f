module Signer = Past_crypto.Signer
module Id = Past_id.Id
module Net = Past_simnet.Net
module PNode = Past_pastry.Node
module Peer = Past_pastry.Peer
module Leaf_set = Past_pastry.Leaf_set
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter
module Histogram = Past_telemetry.Histogram
module Trace = Past_telemetry.Trace

type config = {
  verify_certificates : bool;
  cache_policy : Cache.policy;
  cache_on_insert_path : bool;
  cache_on_lookup_path : bool;
  replica_diversion : bool;
  admission_thresholds : bool;
  t_pri : float;
  t_div : float;
  replication_delay : float;
}

let default_config =
  {
    verify_certificates = true;
    cache_policy = Cache.Gds;
    cache_on_insert_path = true;
    cache_on_lookup_path = true;
    replica_diversion = true;
    admission_thresholds = true;
    t_pri = 0.1;
    t_div = 0.05;
    replication_delay = 50.0;
  }

(* Root-side bookkeeping for lookups the root must satisfy by fetching
   from a diverted holder or a fellow replica. *)
type pending_fetch = {
  mutable waiters : Wire.client_ref list;
  mutable outstanding : int;
  hops : int;
  dist : float;
}

type t = {
  pastry : Wire.t PNode.t;
  store : Store.t;
  cache : Cache.t;
  card : Smartcard.t;
  brokers : Signer.public list; (* trusted card issuers (§2.1: competing brokers co-exist) *)
  config : config;
  free_oracle : (Net.addr -> int option) option;
      (* stands in for the free-space advertisements leaf-set nodes
         piggyback on keep-alives in [12]; used to pick diversion
         targets *)
  clients : (int, op:int -> Wire.reply -> unit) Hashtbl.t;
  mutable next_tag : int;
  pending_fetches : pending_fetch Id.Table.t;
  mutable replication_scheduled : bool;
  (* per-node counters *)
  mutable served_store : int;
  mutable served_cache : int;
  (* overlay-wide telemetry, shared through the overlay's registry *)
  c_accept : Counter.t;
  c_reject : Counter.t;
  c_divert_try : Counter.t;
  c_divert_ok : Counter.t;
  c_cache_hits : Counter.t;
  c_cache_misses : Counter.t;
  c_rereplicate : Counter.t;
  c_offers : Counter.t Lazy.t;
      (* lazy: a run that never repairs keeps its metric schema *)
  h_size : Histogram.t;
  tracer : Trace.t;
}

let pastry t = t.pastry
let store t = t.store
let cache t = t.cache
let config t = t.config
let id t = PNode.id t.pastry
let addr t = PNode.addr t.pastry
let self t = PNode.self t.pastry
let net t = PNode.net t.pastry
let now t = Net.now (net t)

let lookups_served_from_store t = t.served_store
let lookups_served_from_cache t = t.served_cache

let reset_counters t =
  t.served_store <- 0;
  t.served_cache <- 0

(* Cache lives in the store's unused space: re-budget after every
   store mutation (§2.3: "cached copies are evicted when a node stores
   a new primary or diverted replica"). *)
let sync_cache t = Cache.set_budget t.cache (Store.free t.store)

let send t (dst : Peer.t) msg = PNode.send_direct t.pastry ~dst msg

let dispatch_to_client t ~tag ~op reply =
  match Hashtbl.find_opt t.clients tag with
  | Some dispatch -> dispatch ~op reply
  | None -> ()

(* Deliver a reply to a client operation through its access node;
   remote replies travel in a To_client envelope carrying the tag and
   the operation's span id. *)
let to_client t (c : Wire.client_ref) reply =
  if c.Wire.access.Peer.addr = addr t then dispatch_to_client t ~tag:c.Wire.tag ~op:c.Wire.op reply
  else send t c.Wire.access (Wire.To_client { tag = c.Wire.tag; op = c.Wire.op; reply })

let register_client t dispatch =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  Hashtbl.replace t.clients tag dispatch;
  tag

let route_client_op ?parent t ~key msg = PNode.route ?parent t.pastry ~key msg

(* Causal milestone inside a client-operation or repair span; spans
   with id < 0 are untraced, so call sites need no guards. *)
let point t ~span name =
  if span >= 0 && Trace.enabled t.tracer then
    Trace.record t.tracer ~time:(now t) ~node:(addr t) (Trace.Point { span; name })

(* --- certificate checks (§2.1) ---------------------------------------- *)

let file_cert_valid t (cert : Certificate.file) data =
  (not t.config.verify_certificates)
  || Certificate.verify_file cert
     && Certificate.file_matches_content cert data
     && List.exists
          (fun broker ->
            Smartcard.endorsed_by ~broker ~public:cert.Certificate.owner
              ~endorsement:cert.Certificate.owner_endorsement)
          t.brokers

let reclaim_valid t (rc : Certificate.reclaim) =
  (not t.config.verify_certificates) || Certificate.verify_reclaim rc

(* --- replica storage --------------------------------------------------- *)

let replica_set t ~k key =
  Leaf_set.replica_set (PNode.leaf_set t.pastry) ~k key
  |> List.map (function `Self -> self t | `Peer p -> p)

let routing_key (cert : Certificate.file) = Id.prefix_of_file_id cert.Certificate.file_id

let store_locally t (cert : Certificate.file) data kind =
  let put = if t.config.admission_thresholds then Store.put else Store.force_put in
  match put t.store ~cert ~data ~kind with
  | Ok () ->
    (* A file promoted to a replica needs no cached copy here too. Drop
       it before re-budgeting, so its bytes count as freed and no other
       cached file is evicted to make room for them. *)
    Cache.remove t.cache cert.Certificate.file_id;
    sync_cache t;
    Counter.incr t.c_accept;
    Histogram.observe_int t.h_size cert.Certificate.size;
    Ok ()
  | Error `Refused -> Error `Refused

let ack_stored t (cert : Certificate.file) client =
  let receipt =
    Smartcard.issue_store_receipt t.card ~file_id:cert.Certificate.file_id ~now:(now t)
  in
  to_client t client (Wire.Replica_ack { file_id = cert.Certificate.file_id; receipt })

let nack t (cert : Certificate.file) client =
  Counter.incr t.c_reject;
  point t ~span:client.Wire.op "replica_refused";
  to_client t client (Wire.Replica_nack { file_id = cert.Certificate.file_id; node_id = id t })

(* Replica diversion (§2.3 via [12]): a full replica node asks a
   leaf-set neighbour that is not itself in the replica set to hold
   the copy, keeping a pointer. The target is the member with the most
   advertised free space (leaf-set nodes learn each other's free space
   from keep-alive piggybacks, modelled by [free_oracle]); without
   advertisements the choice is uniform. *)
let divert_target t (cert : Certificate.file) =
  let key = routing_key cert in
  let rs = replica_set t ~k:cert.Certificate.replication key in
  let in_replica_set p = List.exists (fun q -> q.Peer.addr = p.Peer.addr) rs in
  let eligible =
    Leaf_set.members (PNode.leaf_set t.pastry)
    |> List.filter (fun p -> (not (in_replica_set p)) && p.Peer.addr <> addr t)
  in
  match (eligible, t.free_oracle) with
  | [], _ -> None
  | _, None -> Some (Past_stdext.Rng.pick_list (Net.rng (net t)) eligible)
  | first :: rest, Some oracle ->
    let free p = Option.value ~default:0 (oracle p.Peer.addr) in
    Some (List.fold_left (fun best p -> if free p > free best then p else best) first rest)

let try_divert t (cert : Certificate.file) data client =
  match divert_target t cert with
  | None -> nack t cert client
  | Some target ->
    Counter.incr t.c_divert_try;
    send t target (Wire.Divert_store { cert; data; client; origin = self t })

let handle_store_replica t (cert : Certificate.file) data client =
  if not (file_cert_valid t cert data) then nack t cert client
  else begin
    match store_locally t cert data Store.Primary with
    | Ok () ->
      point t ~span:client.Wire.op "replica_stored";
      ack_stored t cert client
    | Error `Refused ->
      if t.config.replica_diversion && t.config.admission_thresholds then
        try_divert t cert data client
      else nack t cert client
  end

let handle_divert_store t (cert : Certificate.file) data client (origin : Peer.t) =
  let refuse () =
    send t origin (Wire.Divert_nack { file_id = cert.Certificate.file_id; client })
  in
  if not (file_cert_valid t cert data) then refuse ()
  else begin
    match store_locally t cert data (Store.Diverted { on_behalf = origin.Peer.id }) with
    | Ok () ->
      point t ~span:client.Wire.op "replica_diverted_stored";
      send t origin (Wire.Divert_ack { file_id = cert.Certificate.file_id; holder = self t });
      ack_stored t cert client
    | Error `Refused -> refuse ()
  end

(* --- insert (root side) ----------------------------------------------- *)

let handle_insert t (cert : Certificate.file) data client =
  if not (file_cert_valid t cert data) then nack t cert client
  else begin
    point t ~span:client.Wire.op "insert_root";
    let key = routing_key cert in
    let rs = replica_set t ~k:cert.Certificate.replication key in
    List.iter
      (fun (p : Peer.t) ->
        if p.Peer.addr = addr t then handle_store_replica t cert data client
        else send t p (Wire.Store_replica { cert; data; client }))
      rs
  end

(* --- lookup ------------------------------------------------------------ *)

let serve t (cert : Certificate.file) data client ~hops ~dist ~path =
  to_client t client (Wire.Lookup_hit { cert; data; hops; dist; server = self t });
  (* Populate the caches of the nodes the lookup travelled through
     (§2.3: cached copies of popular files end up near clients). *)
  if t.config.cache_on_lookup_path then begin
    let self_addr = addr t in
    List.iter
      (fun a ->
        if a <> self_addr && a <> client.Wire.access.Peer.addr then
          Net.send (net t) ~src:self_addr ~dst:a (Past_pastry.Message.Direct
            { from = self t; payload = Wire.Cache_offer { cert; data; op = client.Wire.op } }))
      path
  end

let try_serve_locally t file_id client ~hops ~dist ~path =
  match Store.get t.store file_id with
  | Some entry ->
    t.served_store <- t.served_store + 1;
    point t ~span:client.Wire.op "store_hit";
    serve t entry.Store.cert entry.Store.data client ~hops ~dist ~path;
    true
  | None -> (
    match Cache.find t.cache file_id with
    | Some (cert, data) ->
      t.served_cache <- t.served_cache + 1;
      Counter.incr t.c_cache_hits;
      point t ~span:client.Wire.op "cache_hit";
      serve t cert data client ~hops ~dist ~path;
      true
    | None ->
      Counter.incr t.c_cache_misses;
      false)

(* Root-side fallback: pull the file from the diverted holder or from a
   fellow replica, then answer every waiting client. *)
let root_fetch t file_id client ~hops ~dist =
  match Id.Table.find_opt t.pending_fetches file_id with
  | Some pending -> pending.waiters <- client :: pending.waiters
  | None -> (
    let targets =
      match Store.pointer t.store file_id with
      | Some holder -> [ holder ]
      | None ->
        replica_set t ~k:8 (Id.prefix_of_file_id file_id)
        |> List.filter (fun p -> p.Peer.addr <> addr t)
    in
    match targets with
    | [] -> to_client t client (Wire.Lookup_miss { file_id })
    | _ ->
      point t ~span:client.Wire.op "root_fetch";
      Id.Table.replace t.pending_fetches file_id
        { waiters = [ client ]; outstanding = List.length targets; hops; dist };
      List.iter (fun p -> send t p (Wire.Fetch { file_id; requester = self t })) targets)

let handle_fetch_reply t (cert : Certificate.file) data =
  let file_id = cert.Certificate.file_id in
  match Id.Table.find_opt t.pending_fetches file_id with
  | None -> ()
  | Some pending ->
    Id.Table.remove t.pending_fetches file_id;
    (* Keep a cached copy: the root is a popular target for this id. *)
    ignore (Cache.offer t.cache ~cert ~data);
    List.iter
      (fun (client : Wire.client_ref) ->
        point t ~span:client.Wire.op "fetch_served";
        to_client t client
          (Wire.Lookup_hit
             { cert; data; hops = pending.hops; dist = pending.dist; server = self t }))
      pending.waiters

let handle_fetch_miss t file_id =
  match Id.Table.find_opt t.pending_fetches file_id with
  | None -> ()
  | Some pending ->
    pending.outstanding <- pending.outstanding - 1;
    if pending.outstanding <= 0 then begin
      Id.Table.remove t.pending_fetches file_id;
      List.iter (fun client -> to_client t client (Wire.Lookup_miss { file_id })) pending.waiters
    end

let handle_fetch t file_id (requester : Peer.t) =
  match Store.get t.store file_id with
  | Some entry -> send t requester (Wire.Fetch_reply { cert = entry.Store.cert; data = entry.Store.data })
  | None -> (
    match Cache.find t.cache file_id with
    | Some (cert, data) -> send t requester (Wire.Fetch_reply { cert; data })
    | None -> (
      match Store.pointer t.store file_id with
      | Some holder -> send t holder (Wire.Fetch { file_id; requester })
      | None -> send t requester (Wire.Fetch_miss { file_id })))

(* --- reclaim (§2.1) ---------------------------------------------------- *)

let handle_reclaim_exec t (rc : Certificate.reclaim) client =
  let file_id = rc.Certificate.rc_file_id in
  (* Pointers are chased so diverted replicas are reclaimed too. *)
  (match Store.pointer t.store file_id with
  | Some holder ->
    Store.remove_pointer t.store file_id;
    send t holder (Wire.Reclaim_exec { rc; client })
  | None -> ());
  Cache.remove t.cache file_id;
  match
    Store.remove_if t.store file_id (fun cert ->
        reclaim_valid t rc && Certificate.reclaim_matches_file rc cert)
  with
  | `Absent -> ()
  | `Removed entry ->
    sync_cache t;
    let receipt =
      Smartcard.issue_reclaim_receipt t.card ~file_id ~freed:entry.Store.cert.Certificate.size
    in
    to_client t client (Wire.Reclaim_ack { receipt })
  | `Kept ->
    to_client t client (Wire.Reclaim_nack { file_id; reason = "owner mismatch or bad signature" })

let handle_reclaim t (rc : Certificate.reclaim) client =
  if not (reclaim_valid t rc) then
    to_client t client
      (Wire.Reclaim_nack { file_id = rc.Certificate.rc_file_id; reason = "bad reclaim certificate" })
  else begin
    let file_id = rc.Certificate.rc_file_id in
    let k = Option.value (Store.replication_of t.store file_id) ~default:8 in
    let rs = replica_set t ~k (Id.prefix_of_file_id file_id) in
    List.iter
      (fun (p : Peer.t) ->
        if p.Peer.addr = addr t then handle_reclaim_exec t rc client
        else send t p (Wire.Reclaim_exec { rc; client }))
      rs
  end

(* --- failure recovery / re-replication (§2.1 Persistence) -------------- *)

(* One pass's offer to one fellow replica-set member. *)
type offer = { peer : Peer.t; mutable ids : Id.t list }

let re_replicate t =
  t.replication_scheduled <- false;
  (* Offer, then send data only for what is wanted. For every primary
     it holds whose replica set includes it, a node offers the file's
     id to each other member of that set: one [Replica_offer] per peer
     per pass. A pass thus costs at most one offer and one
     [Replica_want] per peer, and at most 2(k-1) peers for k-way files
     (a replica set that includes this node reaches at most k-1 nodes
     to either side of it), plus one [Replicate] per copy a member
     actually lacks, one round trip after the offer. Every holder
     offers, not only the root. A root-only scheme is cheaper but
     stalls under churn: when the root crashes while the surviving
     holders are non-roots, nobody offers and the file stays below k
     copies until a holder rejoins. The wide offer also seeds the new
     root with a copy, so it can coordinate the next repair. *)
  let offers = ref [] (* first-seen peer last *) in
  let rec offer_to (p : Peer.t) = function
    | o :: rest -> if o.peer.Peer.addr = p.Peer.addr then o else offer_to p rest
    | [] ->
      let o = { peer = p; ids = [] } in
      offers := o :: !offers;
      o
  in
  Store.iter t.store (fun entry ->
      match entry.Store.kind with
      | Store.Diverted _ -> ()
      | Store.Primary ->
        let cert = entry.Store.cert in
        let rs = replica_set t ~k:cert.Certificate.replication (routing_key cert) in
        if List.exists (fun (p : Peer.t) -> p.Peer.addr = addr t) rs then
          List.iter
            (fun (p : Peer.t) ->
              if p.Peer.addr <> addr t then begin
                let o = offer_to p !offers in
                o.ids <- cert.Certificate.file_id :: o.ids
              end)
            rs);
  match List.rev !offers with
  | [] -> ()
  | offers ->
    (* The pass is a causal root of its own: its offers, the wants they
       draw and the data those pull (and any diverted store that
       causes downstream) carry this span, so a repair cascade reads as
       one tree in the trace. Passes with nothing to offer leave no
       trace events. *)
    let op =
      Trace.start_span t.tracer ~time:(now t) ~node:(addr t) ~parent:Trace.no_parent ~op:"repair"
        (Id.short (id t))
    in
    let c_offers = Lazy.force t.c_offers in
    List.iter
      (fun o ->
        Counter.incr c_offers;
        send t o.peer (Wire.Replica_offer { ids = o.ids; op }))
      offers;
    Trace.record t.tracer ~time:(now t) ~node:(addr t)
      (Trace.Span_end { span = op; note = Printf.sprintf "%d offer(s)" (List.length offers) })

(* Answer an offer with the ids this node lacks, by the same
   [Store.mem] test [handle_replicate] applies to the data. *)
let handle_replica_offer t ids ~op ~from =
  match List.filter (fun id -> not (Store.mem t.store id)) ids with
  | [] -> ()
  | wanted -> send t from (Wire.Replica_want { ids = wanted; op })

(* Send the data of each wanted id still held as a primary replica; a
   file reclaimed (or diverted away) since the offer is skipped. *)
let handle_replica_want t ids ~op ~from =
  List.iter
    (fun id ->
      match Store.get t.store id with
      | Some { Store.kind = Store.Primary; cert; data } ->
        Counter.incr t.c_rereplicate;
        send t from (Wire.Replicate { cert; data; op })
      | Some { Store.kind = Store.Diverted _; _ } | None -> ())
    ids

let schedule_re_replication t =
  if not t.replication_scheduled then begin
    t.replication_scheduled <- true;
    (* Owner-gated: if this node crashes before the delay elapses the
       thunk is skipped ([replication_scheduled] stays set and is
       cleared by [notify_revived] on rejoin). *)
    Net.schedule (net t) ~owner:(addr t) ~delay:t.config.replication_delay (fun () ->
        re_replicate t)
  end

let notify_revived t =
  (* A crash may have swallowed a scheduled re-replication pass (the
     owner-gated thunk was skipped); clear the latch and run a fresh
     pass so files this node is root for regain their k copies. *)
  t.replication_scheduled <- false;
  schedule_re_replication t

let handle_replicate t (cert : Certificate.file) data ~op =
  if Store.mem t.store cert.Certificate.file_id then ()
  else if file_cert_valid t cert data then begin
    match store_locally t cert data Store.Primary with
    | Ok () -> point t ~span:op "replica_restored"
    | Error `Refused ->
      (* Even recovery copies respect storage management; divert if
         allowed so the replica count recovers. *)
      if t.config.replica_diversion && t.config.admission_thresholds then begin
        match divert_target t cert with
        | None -> ()
        | Some target ->
          send t target
            (Wire.Divert_store
               {
                 cert;
                 data;
                 client = { Wire.access = self t; tag = -1; op };
                 origin = self t;
               })
      end
  end

(* --- wiring ------------------------------------------------------------ *)

let deliver t ~key:_ (msg : Wire.t) (info : PNode.route_info) =
  match msg with
  | Wire.Insert { cert; data; client } -> handle_insert t cert data client
  | Wire.Lookup { file_id; client } ->
    if not (try_serve_locally t file_id client ~hops:info.PNode.hops ~dist:info.PNode.dist ~path:info.PNode.path)
    then root_fetch t file_id client ~hops:info.PNode.hops ~dist:info.PNode.dist
  | Wire.Reclaim { rc; client } -> handle_reclaim t rc client
  | Wire.Store_replica _ | Wire.Divert_store _ | Wire.Divert_ack _ | Wire.Divert_nack _
  | Wire.Fetch _ | Wire.Fetch_reply _ | Wire.Fetch_miss _ | Wire.Reclaim_exec _
  | Wire.Cache_offer _ | Wire.Replica_offer _ | Wire.Replica_want _ | Wire.Replicate _
  | Wire.Audit_challenge _ | Wire.To_client _ ->
    (* Only the three requests above are routed; everything else is
       sent direct (see [on_direct]), so a routed one is dropped. *)
    ()

let forward t ~key:_ (msg : Wire.t) (info : PNode.route_info) =
  match msg with
  | Wire.Lookup { file_id; client } ->
    (* Serve from an en-route replica or cached copy: this is how
       caching shortens fetch distance (§2.3). *)
    if try_serve_locally t file_id client ~hops:info.PNode.hops ~dist:info.PNode.dist ~path:info.PNode.path
    then `Stop
    else `Continue
  | Wire.Insert { cert; data; _ } ->
    if t.config.cache_on_insert_path then ignore (Cache.offer t.cache ~cert ~data);
    `Continue
  | Wire.Reclaim _ | Wire.Store_replica _ | Wire.Divert_store _ | Wire.Divert_ack _
  | Wire.Divert_nack _ | Wire.Fetch _ | Wire.Fetch_reply _ | Wire.Fetch_miss _
  | Wire.Reclaim_exec _ | Wire.Cache_offer _ | Wire.Replica_offer _ | Wire.Replica_want _
  | Wire.Replicate _ | Wire.Audit_challenge _ | Wire.To_client _ ->
    `Continue

let on_direct t ~from (msg : Wire.t) =
  match msg with
  | Wire.Store_replica { cert; data; client } -> handle_store_replica t cert data client
  | Wire.Divert_store { cert; data; client; origin } -> handle_divert_store t cert data client origin
  | Wire.Divert_ack { file_id; holder } ->
    Counter.incr t.c_divert_ok;
    Store.add_pointer t.store ~file_id ~holder
  | Wire.Divert_nack { file_id; client } ->
    if client.Wire.tag >= 0 then begin
      Counter.incr t.c_reject;
      to_client t client (Wire.Replica_nack { file_id; node_id = id t })
    end
  | Wire.To_client { tag; op; reply } -> dispatch_to_client t ~tag ~op reply
  | Wire.Fetch { file_id; requester } -> handle_fetch t file_id requester
  | Wire.Fetch_reply { cert; data } -> handle_fetch_reply t cert data
  | Wire.Fetch_miss { file_id } -> handle_fetch_miss t file_id
  | Wire.Reclaim_exec { rc; client } -> handle_reclaim_exec t rc client
  | Wire.Audit_challenge { file_id; nonce; client } -> (
    (* Produce SHA-1(nonce ‖ content) from the primary/diverted replica;
       chase the pointer when the replica was diverted (the audited
       node is still responsible for the bytes); an empty proof admits
       the file cannot be produced. *)
    match Store.get t.store file_id with
    | Some entry ->
      let proof =
        Past_crypto.Hex.of_bytes
          (Past_crypto.Sha1.digest_string (nonce ^ entry.Store.data))
      in
      to_client t client (Wire.Audit_proof { file_id; nonce; proof })
    | None -> (
      match Store.pointer t.store file_id with
      | Some holder -> send t holder (Wire.Audit_challenge { file_id; nonce; client })
      | None -> to_client t client (Wire.Audit_proof { file_id; nonce; proof = "" })))
  | Wire.Cache_offer { cert; data; op } ->
    if not (Store.mem t.store cert.Certificate.file_id) then
      if Cache.offer t.cache ~cert ~data then point t ~span:op "cached_en_route"
  | Wire.Replica_offer { ids; op } -> handle_replica_offer t ids ~op ~from
  | Wire.Replica_want { ids; op } -> handle_replica_want t ids ~op ~from
  | Wire.Replicate { cert; data; op } -> handle_replicate t cert data ~op
  | Wire.Insert _ | Wire.Lookup _ | Wire.Reclaim _ -> ()

let attach ~pastry ~card ~brokers ~capacity ?(config = default_config) ?backend ?free_oracle () =
  if brokers = [] then invalid_arg "Node.attach: need at least one trusted broker";
  let reg = Net.registry (PNode.net pastry) in
  let t =
    {
      pastry;
      store = Store.create ~capacity ~t_pri:config.t_pri ~t_div:config.t_div ?backend ();
      cache = Cache.create config.cache_policy;
      card;
      brokers;
      config;
      free_oracle;
      clients = Hashtbl.create 8;
      next_tag = 0;
      pending_fetches = Id.Table.create 16;
      replication_scheduled = false;
      served_store = 0;
      served_cache = 0;
      c_accept = Registry.counter reg "past.insert.accepted";
      c_reject = Registry.counter reg "past.insert.rejected";
      c_divert_try = Registry.counter reg "past.divert.attempted";
      c_divert_ok = Registry.counter reg "past.divert.succeeded";
      c_cache_hits = Registry.counter reg "past.cache.hits";
      c_cache_misses = Registry.counter reg "past.cache.misses";
      c_rereplicate = Registry.counter reg "past.rereplicate.sent";
      c_offers = lazy (Registry.counter reg "past.rereplicate.offers");
      h_size = Registry.histogram reg "past.replica.size";
      tracer = Registry.tracer reg;
    }
  in
  sync_cache t;
  PNode.set_app pastry
    {
      PNode.deliver = (fun ~key msg info -> deliver t ~key msg info);
      forward = (fun ~key msg info -> forward t ~key msg info);
      on_direct = (fun ~from msg -> on_direct t ~from msg);
      on_leaf_change = (fun () -> schedule_re_replication t);
    };
  t
