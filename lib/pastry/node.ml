module Id = Past_id.Id
module Net = Past_simnet.Net
module Rng = Past_stdext.Rng
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter
module Trace = Past_telemetry.Trace
module Monitor = Past_telemetry.Monitor

type route_info = { hops : int; dist : float; path : Net.addr list }

type 'a app = {
  deliver : key:Id.t -> 'a -> route_info -> unit;
  forward : key:Id.t -> 'a -> route_info -> [ `Continue | `Stop ];
  on_direct : from:Peer.t -> 'a -> unit;
  on_leaf_change : unit -> unit;
}

(* Overlay-wide telemetry: all nodes of one overlay resolve the same
   registry counters, so these aggregate across the whole system. One
   [shared] bundle serves every node of an overlay — at mega-scale,
   nine per-node pointers to the same nine objects are real memory. *)
type shared = {
  tracer : Trace.t;
  monitors : Monitor.t;
  c_hop_leaf : Counter.t;
  c_hop_rt : Counter.t;
  c_hop_rare : Counter.t;
  c_delivered : Counter.t;
  c_ctl : Counter.t;
  c_repairs : Counter.t;
  (* Lazy so failure-free runs keep their pre-fault-engine telemetry
     schema (the EXP1 golden compares registry snapshots byte-for-byte);
     the row appears once the first repair happens. *)
  c_rt_repairs : Counter.t Lazy.t;
  (* Failure declarations naming a node that is in fact up (ground
     truth from the simulator; lazy for the same schema reason). *)
  c_declared_live : Counter.t Lazy.t;
}

let shared_of_registry reg =
  (* Eagerly created so a metrics snapshot shows every stage, zero or
     not. *)
  let stage_hop s = Registry.counter reg ~labels:[ ("stage", Trace.stage_name s) ] "pastry.route.hops" in
  {
    tracer = Registry.tracer reg;
    monitors = Registry.monitors reg;
    c_hop_leaf = stage_hop Trace.Leaf_set;
    c_hop_rt = stage_hop Trace.Routing_table;
    c_hop_rare = stage_hop Trace.Rare_case;
    c_delivered = Registry.counter reg "pastry.route.delivered";
    c_ctl = Registry.counter reg "pastry.control_sent";
    c_repairs = Registry.counter reg "pastry.leaf_repairs";
    c_rt_repairs = lazy (Registry.counter reg "pastry.rt_repairs");
    c_declared_live = lazy (Registry.counter reg "pastry.declared_failed.live");
  }

type 'a t = {
  net : 'a Message.t Net.t;
  config : Config.t;
  rng : Rng.t;
  self : Peer.t;
  rt : Routing_table.t;
  leaf : Leaf_set.t;
  nbhd : Neighborhood.t;
  mutable app : 'a app option;
  mutable joined : bool;
  mutable maintenance : bool;
  (* Maintenance timers are owner-gated (a crashed node's tick never
     fires), so the periodic chain dies with the node; the epoch lets
     [recover] re-arm exactly one live chain — stale thunks from before
     the crash see an old epoch and stop. *)
  mutable maint_epoch : int;
  mutable malicious : bool;
  shared : shared;
}

let self t = t.self
let net t = t.net
let id t = t.self.Peer.id
let addr t = t.self.Peer.addr
let routing_table t = t.rt
let leaf_set t = t.leaf
let neighborhood t = t.nbhd
let joined t = t.joined
let set_app t app = t.app <- Some app
let set_malicious t flag = t.malicious <- flag
let malicious t = t.malicious

let proximity_to t peer_addr = Net.proximity t.net t.self.Peer.addr peer_addr

let tell t dst msg =
  (match msg with
  | Message.Routed { payload = Message.App _; _ } | Message.Direct _ -> ()
  | _ -> Counter.incr t.shared.c_ctl);
  Net.send t.net ~src:t.self.Peer.addr ~dst msg

let fire_leaf_change t = match t.app with Some a -> a.on_leaf_change () | None -> ()

let learn t (peer : Peer.t) =
  if
    peer.Peer.addr <> t.self.Peer.addr
    && not (Id.equal peer.Peer.id t.self.Peer.id)
  then begin
    let leaf_changed = Leaf_set.add t.leaf ~now:(Net.now t.net) peer in
    let prox = proximity_to t peer.Peer.addr in
    ignore (Routing_table.consider_prox t.rt ~prox peer);
    ignore (Neighborhood.add t.nbhd ~proximity:prox peer);
    if leaf_changed then fire_leaf_change t
  end

let set_leaf_ring t ~ids ~addrs ~pos ~count =
  Leaf_set.set_ring t.leaf ~now:(Net.now t.net) ~ids ~addrs ~pos ~count;
  if count > 0 then fire_leaf_change t

let known_peers t =
  let tbl = Hashtbl.create 64 in
  let collect p = if not (Hashtbl.mem tbl p.Peer.addr) then Hashtbl.replace tbl p.Peer.addr p in
  List.iter collect (Leaf_set.members t.leaf);
  List.iter collect (Routing_table.peers t.rt);
  List.iter collect (Neighborhood.members t.nbhd);
  Hashtbl.fold (fun _ p acc -> p :: acc) tbl []

(* --- failure handling ------------------------------------------------ *)

let declare_failed t failed_addr =
  if Net.alive t.net failed_addr then Counter.incr (Lazy.force t.shared.c_declared_live);
  let was_smaller = List.exists (fun p -> p.Peer.addr = failed_addr) (Leaf_set.smaller t.leaf) in
  let was_larger = List.exists (fun p -> p.Peer.addr = failed_addr) (Leaf_set.larger t.leaf) in
  let leaf_changed = Leaf_set.remove_addr t.leaf failed_addr in
  if Routing_table.remove_addr t.rt failed_addr then
    (* Routing-table repair accounting: the vacated cell is refilled
       lazily by [learn] from passing traffic (§2.2); each removal is
       one repair episode. *)
    Counter.incr (Lazy.force t.shared.c_rt_repairs);
  ignore (Neighborhood.remove_addr t.nbhd failed_addr);
  if leaf_changed then begin
    (* Repair: ask the live extreme node on the failed side for its
       leaf set; the overlap of adjacent leaf sets restores the
       invariant (§2.2 "Node addition and failure"). *)
    Counter.incr t.shared.c_repairs;
    let ask peer = tell t peer.Peer.addr (Message.Leaf_request { from = t.self }) in
    if was_smaller then Option.iter ask (Leaf_set.extreme_smaller t.leaf);
    if was_larger then Option.iter ask (Leaf_set.extreme_larger t.leaf);
    fire_leaf_change t
  end

(* A peer is usable as a next hop only if currently reachable. In the
   simulator this models the per-hop timeout-and-retry of a real
   deployment: a dead hop is eventually detected by the sender, removed
   from its tables (lazy repair) and routing retried; we fold that loop
   into one step. *)
let usable t peer =
  if Net.alive t.net peer.Peer.addr then true
  else begin
    declare_failed t peer.Peer.addr;
    false
  end

(* --- routing ---------------------------------------------------------- *)

type 'a hop = Deliver | Forward of Peer.t

let shared_prefix t key = Id.shared_prefix_digits ~b:t.config.Config.b t.self.Peer.id key

(* Candidates that preserve the loop-freedom invariant (§2.2): share at
   least as long a prefix with the key as we do, and are numerically
   closer to it. *)
let rare_case_candidates t key p0 =
  let b = t.config.Config.b in
  List.filter
    (fun (c : Peer.t) ->
      Id.shared_prefix_digits ~b c.Peer.id key >= p0
      && Id.closer ~target:key c.Peer.id t.self.Peer.id < 0
      && usable t c)
    (known_peers t)

let best_candidate t key candidates =
  let b = t.config.Config.b in
  let better (x : Peer.t) (y : Peer.t) =
    let px = Id.shared_prefix_digits ~b x.Peer.id key
    and py = Id.shared_prefix_digits ~b y.Peer.id key in
    if px <> py then px > py else Id.closer ~target:key x.Peer.id y.Peer.id < 0
  in
  match candidates with
  | [] -> None
  | first :: rest -> Some (List.fold_left (fun acc c -> if better c acc then c else acc) first rest)

(* The stage labels which routing structure chose the hop: the leaf
   set, the routing table, or the rare-case fallback scan (randomized
   routing always scans candidates, so it counts as rare-case). A
   delivery at the local node with no leaf-set coverage is [Local]. *)
let next_hop t key : 'a hop * Trace.stage =
  (* Use-time filtering of dead members keeps decisions sound between a
     failure and its detection by keep-alives: pruning a dead member and
     retrying folds the real per-hop timeout loop into one step. *)
  let rec leaf_step () =
    if Leaf_set.covers t.leaf key then begin
      match Leaf_set.closest_including_self t.leaf key with
      | None -> Some (Deliver, Trace.Leaf_set)
      | Some p -> if usable t p then Some (Forward p, Trace.Leaf_set) else leaf_step ()
    end
    else None
  in
  if Id.equal key t.self.Peer.id then (Deliver, Trace.Local)
  else begin
    match leaf_step () with
    | Some hop -> hop
    | None ->
    let p0 = shared_prefix t key in
    if t.config.Config.randomized_routing then begin
      let candidates = rare_case_candidates t key p0 in
      match candidates with
      | [] -> (Deliver, Trace.Local)
      | _ -> (
        match best_candidate t key candidates with
        | Some best
          when Rng.chance t.rng t.config.Config.randomize_bias || List.length candidates = 1 ->
          (Forward best, Trace.Rare_case)
        | Some best -> (
          let others = List.filter (fun c -> not (Peer.equal c best)) candidates in
          match others with
          | [] -> (Forward best, Trace.Rare_case)
          | _ -> (Forward (Rng.pick_list t.rng others), Trace.Rare_case))
        | None -> (Deliver, Trace.Local))
    end
    else begin
      match Routing_table.next_hop t.rt ~key with
      | Some p when usable t p -> (Forward p, Trace.Routing_table)
      | Some _ | None -> (
        (* Rare case: no routing-table entry; fall back to any known
           node with an equal-or-longer prefix that is numerically
           closer (guaranteed to exist unless ⌊l/2⌋ adjacent leaf-set
           nodes failed simultaneously). *)
        match best_candidate t key (rare_case_candidates t key p0) with
        | Some p -> (Forward p, Trace.Rare_case)
        | None -> (Deliver, Trace.Local))
    end
  end

let route_info (r : 'a Message.routed) =
  { hops = r.Message.hops; dist = r.Message.dist; path = r.Message.path }

let do_deliver t (r : 'a Message.routed) =
  match r.Message.payload with
  | Message.Join_request ->
    (* We are Z, the numerically closest node: hand the joiner our leaf
       set (it becomes the basis of theirs) and our relevant rows. *)
    let joiner = r.Message.origin in
    let p = Id.shared_prefix_digits ~b:t.config.Config.b t.self.Peer.id joiner.Peer.id in
    let p = Stdlib.min p (Config.rows t.config - 1) in
    let rows = List.init (p + 1) (fun i -> (i, Routing_table.row_peers t.rt i)) in
    tell t joiner.Peer.addr (Message.Join_rows { from = t.self; rows });
    tell t joiner.Peer.addr
      (Message.Join_leaf
         { from = t.self; smaller = Leaf_set.smaller t.leaf; larger = Leaf_set.larger t.leaf })
  | Message.App payload -> (
    match t.app with
    | Some a -> a.deliver ~key:r.Message.key payload (route_info r)
    | None -> ())

let contribute_join_rows t (r : 'a Message.routed) =
  let joiner = r.Message.origin in
  if joiner.Peer.addr <> t.self.Peer.addr then begin
    let p = Id.shared_prefix_digits ~b:t.config.Config.b t.self.Peer.id joiner.Peer.id in
    let p = Stdlib.min p (Config.rows t.config - 1) in
    (* Rows 0..p of this node are all valid rows 0..p for the joiner,
       since the two ids agree on the first p digits. One message keeps
       the join cost at O(log N) messages. *)
    let rows = List.init (p + 1) (fun i -> (i, Routing_table.row_peers t.rt i)) in
    tell t joiner.Peer.addr (Message.Join_rows { from = t.self; rows });
    if r.Message.hops = 0 then
      (* We are the bootstrap node A, assumed near the joiner: seed its
         neighborhood set from ours (§2.2 "Node addition"). *)
      tell t joiner.Peer.addr
        (Message.Nbhd_reply { from = t.self; peers = Neighborhood.members t.nbhd })
  end

let stage_counter t = function
  | Trace.Leaf_set -> t.shared.c_hop_leaf
  | Trace.Routing_table -> t.shared.c_hop_rt
  | Trace.Rare_case | Trace.Local -> t.shared.c_hop_rare

let trace_event t kind = Trace.record t.shared.tracer ~time:(Net.now t.net) ~node:t.self.Peer.addr kind

(* Online hop-bound invariant (paper §2.2: expected ⌈log_2^b N⌉ hops).
   The slack absorbs rare-case routing and stale tables during churn;
   the monitor is a tripwire for pathological forwarding loops, not a
   tight performance assertion. N is the network's address count — an
   overestimate (clients and brokers hold addresses too), which only
   loosens the bound. *)
let hop_bound_slack = 6

let check_hop_bound t (r : 'a Message.routed) =
  if Monitor.active t.shared.monitors then begin
    let n = Stdlib.max 2 (Net.node_count t.net) in
    let digits = float_of_int (1 lsl t.config.Config.b) in
    let bound =
      int_of_float (Float.ceil (Float.log (float_of_int n) /. Float.log digits))
      + hop_bound_slack
    in
    Monitor.record_check t.shared.monitors ~name:"pastry.hop_bound" ~now:(Net.now t.net)
      ~detail:
        (Printf.sprintf "route %d delivered after %d hops (bound %d, N=%d)" r.Message.trace
           r.Message.hops bound n)
      (r.Message.hops <= bound)
  end

let handle_routed t (r : 'a Message.routed) =
  if not t.malicious then begin
    let hop, stage = next_hop t r.Message.key in
    match hop with
    | Deliver ->
      Counter.incr t.shared.c_delivered;
      check_hop_bound t r;
      trace_event t (Trace.Span_end { span = r.Message.trace; note = Trace.stage_name stage });
      do_deliver t r
    | Forward next ->
      let decision =
        match r.Message.payload with
        | Message.Join_request ->
          contribute_join_rows t r;
          `Continue
        | Message.App payload -> (
          match t.app with
          | Some a -> a.forward ~key:r.Message.key payload (route_info r)
          | None -> `Continue)
      in
      if decision = `Continue then begin
        Counter.incr (stage_counter t stage);
        trace_event t
          (Trace.Hop { span = r.Message.trace; seq = r.Message.hops; to_ = next.Peer.addr; stage });
        let hop_dist = proximity_to t next.Peer.addr in
        tell t next.Peer.addr
          (Message.Routed
             {
               r with
               Message.sender = t.self;
               hops = r.Message.hops + 1;
               dist = r.Message.dist +. hop_dist;
               path = next.Peer.addr :: r.Message.path;
             })
      end
      else
        (* The application intercepted the lookup (e.g. a PAST cache hit
           en route): the route effectively delivered here. *)
        trace_event t
          (Trace.Span_end { span = r.Message.trace; note = Trace.stage_name Trace.Local })
  end

let announce t =
  List.iter (fun p -> tell t p.Peer.addr (Message.Announce { from = t.self })) (known_peers t)

let handle t src msg =
  (* Hearing from a node directly is proof of life: a leaf-set member
     is stamped heard, so the next ticks need not probe it. *)
  Leaf_set.heard t.leaf src ~now:(Net.now t.net);
  match msg with
  | Message.Routed r ->
    (* A joiner in flight must not enter anyone's tables yet: learning
       it would make the leaf set route the join straight back to the
       (still stateless) joiner instead of to Z. It announces itself
       once it has joined. *)
    (match r.Message.payload with
    | Message.Join_request ->
      if r.Message.sender.Peer.addr <> r.Message.origin.Peer.addr then learn t r.Message.sender
    | Message.App _ ->
      learn t r.Message.sender;
      learn t r.Message.origin);
    handle_routed t r
  | Message.Join_rows { from; rows } ->
    learn t from;
    List.iter (fun (_, peers) -> List.iter (learn t) peers) rows
  | Message.Join_leaf { from; smaller; larger } ->
    learn t from;
    List.iter (learn t) smaller;
    List.iter (learn t) larger;
    if not t.joined then begin
      t.joined <- true;
      (* Notify every node that needs to know of our arrival, restoring
         Pastry's invariants (§2.2). *)
      announce t
    end
  | Message.Nbhd_reply { from; peers } ->
    learn t from;
    List.iter (learn t) peers
  | Message.Announce { from } -> learn t from
  | Message.Keepalive { from } ->
    learn t from;
    tell t from.Peer.addr (Message.Keepalive_ack { from = t.self })
  | Message.Keepalive_ack { from } -> learn t from
  | Message.Leaf_request { from } ->
    learn t from;
    let smaller, larger = Leaf_set.vouched t.leaf in
    tell t from.Peer.addr (Message.Leaf_reply { from = t.self; smaller; larger })
  | Message.Leaf_reply { from; smaller; larger } ->
    learn t from;
    List.iter (learn t) smaller;
    List.iter (learn t) larger
  | Message.Direct { from; payload } -> (
    learn t from;
    match t.app with Some a -> a.on_direct ~from payload | None -> ())

let create ?dir ?shared ~net ~config ~rng ~id () =
  Config.validate config;
  let node_ref = ref None in
  let handler src msg = match !node_ref with Some n -> handle n src msg | None -> () in
  let addr = Net.register net ~handler in
  let self = Peer.make ~id ~addr in
  let dir = match dir with Some d -> d | None -> Directory.create () in
  Directory.note dir self;
  let shared =
    match shared with Some s -> s | None -> shared_of_registry (Net.registry net)
  in
  let t =
    {
      net;
      config;
      rng;
      self;
      rt =
        Routing_table.create ~dir ~config ~own:id
          ~proximity:(fun a -> Net.proximity net addr a)
          ();
      leaf = Leaf_set.create ~dir ~config ~own:id ();
      nbhd = Neighborhood.create ~dir ~config ~own:id ();
      app = None;
      joined = true (* a lone node is a complete overlay of size one *);
      maintenance = false;
      maint_epoch = 0;
      malicious = false;
      shared;
    }
  in
  node_ref := Some t;
  t

let state_size t =
  Routing_table.entry_count t.rt
  + List.length (Leaf_set.smaller t.leaf)
  + List.length (Leaf_set.larger t.leaf)
  + Neighborhood.size t.nbhd

(* A routed message is a span: its id rides the message as [trace]. *)
let start_route t ~parent ~key =
  let span = Trace.new_span_id t.shared.tracer in
  trace_event t (Trace.Span_start { span; parent; op = Trace.route_op; detail = Id.short key });
  span

let join t ~bootstrap =
  if bootstrap = t.self.Peer.addr then invalid_arg "Node.join: cannot bootstrap from self";
  t.joined <- false;
  let trace = start_route t ~parent:Trace.no_parent ~key:t.self.Peer.id in
  tell t bootstrap
    (Message.Routed
       {
         key = t.self.Peer.id;
         origin = t.self;
         sender = t.self;
         trace;
         hops = 0;
         dist = 0.0;
         path = [ t.self.Peer.addr ];
         payload = Message.Join_request;
       })

let route ?(parent = Trace.no_parent) t ~key payload =
  let trace = start_route t ~parent ~key in
  let r =
    {
      Message.key;
      origin = t.self;
      sender = t.self;
      trace;
      hops = 0;
      dist = 0.0;
      path = [ t.self.Peer.addr ];
      payload = Message.App payload;
    }
  in
  handle_routed t r

let send_direct t ~dst payload =
  if dst.Peer.addr = t.self.Peer.addr then begin
    match t.app with Some a -> a.on_direct ~from:t.self payload | None -> ()
  end
  else tell t dst.Peer.addr (Message.Direct { from = t.self; payload })

(* Members whose probe went unanswered past its deadline are declared
   failed, in slot order. The list is taken before any declaration: a
   declaration's leaf-change callback may itself evict members. *)
let check_failures t = List.iter (declare_failed t) (Leaf_set.expired t.leaf ~now:(Net.now t.net))

(* Probe only the members not heard from within one keep-alive period
   (see Leaf_set's liveness section for the detection bound). *)
let maintenance_tick t =
  (* No liveness guard needed: the timer thunk is owner-gated, so a
     down node's tick is never dispatched in the first place. *)
  check_failures t;
  let probe = Message.Keepalive { from = t.self } in
  Leaf_set.probe_silent t.leaf ~now:(Net.now t.net) ~period:t.config.Config.keepalive_period
    ~timeout:t.config.Config.failure_timeout (fun addr -> tell t addr probe)

let rec arm_maintenance t ~epoch ~delay =
  Net.schedule t.net ~owner:t.self.Peer.addr ~delay (fun () ->
      if t.maintenance && epoch = t.maint_epoch then begin
        maintenance_tick t;
        arm_maintenance t ~epoch ~delay:t.config.Config.keepalive_period
      end)

let start_maintenance t =
  if not t.maintenance then begin
    t.maintenance <- true;
    t.maint_epoch <- t.maint_epoch + 1;
    Leaf_set.track_liveness t.leaf ~now:(Net.now t.net) ~due:infinity;
    (* Desynchronise nodes' timers. *)
    arm_maintenance t ~epoch:t.maint_epoch
      ~delay:(Rng.float t.rng t.config.Config.keepalive_period)
  end

let stop_maintenance t = t.maintenance <- false

let recover t =
  (* A recovering node contacts its last known leaf set, refreshes its
     own leaf set from theirs, and announces its presence (§2.2). *)
  (* Liveness heard before the crash is stale, and members may have died
     while we were down: every member is held under probe, due one
     failure timeout from now. The leaf-set requests below are the
     probes; a member reappears in our replies once it answers, and a
     dead one is evicted at the first tick past the deadline. *)
  if t.maintenance then begin
    let now = Net.now t.net in
    Leaf_set.track_liveness t.leaf ~now ~due:(now +. t.config.Config.failure_timeout)
  end;
  List.iter
    (fun (m : Peer.t) -> tell t m.Peer.addr (Message.Leaf_request { from = t.self }))
    (Leaf_set.members t.leaf);
  announce t;
  if t.maintenance then begin
    (* The owner-gated timer chain died while the node was down (a
       skipped tick never reschedules); re-arm a fresh chain and
       invalidate any pre-crash thunk still in the queue. *)
    t.maint_epoch <- t.maint_epoch + 1;
    arm_maintenance t ~epoch:t.maint_epoch
      ~delay:(Rng.float t.rng t.config.Config.keepalive_period)
  end
