module Rng = Past_stdext.Rng
module Timing_wheel = Past_stdext.Timing_wheel
module Domain_pool = Past_stdext.Domain_pool
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter
module Histogram = Past_telemetry.Histogram
module Context = Past_telemetry.Context

type addr = int

let pp_addr = Format.pp_print_int

(* Per-kind accounting: one counter triple per message kind, resolved
   through the registry once per kind and cached. The triple for a
   message is resolved once at send time and carried in its Deliver
   action, so delivery/drop accounting never re-runs [describe] or the
   string-keyed lookup. *)
type kind_counters = { k_sent : Counter.t; k_delivered : Counter.t; k_dropped : Counter.t }

(* What a queued event does. The timing-wheel cell stores the action
   itself next to the event's (time, seq) key, so an event costs its
   action block and its cell, with no wrapper record. *)
type 'msg action =
  | Deliver of { src : addr; dst : addr; msg : 'msg; kinds : kind_counters }
  | Thunk of { owner : addr option; run : unit -> unit }

(* A cross-partition event created inside a window, parked in the
   creating context's outbox until the barrier. *)
type 'msg outbound = { o_ctx : int; o_time : float; o_seq : int; o_action : 'msg action }

type 'msg node = {
  location : Topology.location;
  handler : addr -> 'msg -> unit;
  n_ctx : int;  (** partition context (0 in a sequential net) *)
  mutable up : bool;
  mutable group : int;  (** partition group; delivery requires src.group = dst.group *)
}

(* Per-link fault overrides, keyed by (src, dst) — directional, so
   asymmetric links are expressible. *)
type link = { lk_loss : float option; lk_delay_factor : float; lk_extra_delay : float }

(* A periodic sim-time observer: [s_fn] runs at every multiple of
   [s_interval] the clock crosses. Callbacks must be read-only with
   respect to simulation state (snapshot metrics, evaluate monitors) so
   arming one never perturbs event order or RNG draws. *)
type sampler = { s_interval : float; mutable s_next : float; s_fn : float -> unit }

(* --- intra-run parallelism -------------------------------------------- *)

(* [`Domains k] selects the conservative bounded-lag parallel engine
   (see DESIGN.md §6f): nodes are partitioned into [num_partitions]
   fixed contexts by topology locality, every per-event resource
   (event queue, clock, RNG streams, sequence counter) is per-context,
   and the run advances in lock-step windows whose width is the
   minimum cross-partition link delay (the lookahead). [k] only sets
   how many domains execute the partitions of a window — the
   partitioning, the schedule and every RNG draw are identical for any
   [k], so output is byte-identical at jobs 1, 2, 4, ...

   [`Seq] is the original single-queue engine, byte-for-byte. The two
   engines draw RNG streams differently (one stream vs one per
   partition), so their outputs differ from each other; the oracle for
   the parallel engine is itself at [`Domains 1]. *)
type par = [ `Seq | `Domains of int ]

let num_partitions = 8

let env_jobs () =
  match Sys.getenv_opt "PAST_NET_JOBS" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some k when k >= 1 -> Some k | _ -> None)

let default_par () : par = match env_jobs () with Some k -> `Domains k | None -> `Seq

type 'msg t = {
  rng : Rng.t;
  (* All fault-injection coins (loss, duplication, reordering) come
     from a separate stream derived — without consuming — from [rng],
     so toggling any fault knob leaves the main stream's draw sequence
     untouched: a lossy run and its lossless baseline stay comparable
     event-for-event. *)
  fault_rng : Rng.t;
  topology : Topology.t;
  mutable loss_rate : float;
  latency_factor : float;
  mutable duplication_rate : float;
  mutable reorder_rate : float;
  mutable reorder_max_delay : float;
  mutable clock : float;  (** environment (context-0) clock; global max in step mode *)
  mutable seq : int;  (** sequential-engine event sequence *)
  (* One queue in a sequential net; one per context (0 = environment,
     1..num_partitions = partitions) in a parallel net. Only the owning
     context touches its queue during a window. *)
  queues : 'msg action Timing_wheel.t array;
  is_ctx : bool;  (** parallel (windowed) engine? *)
  jobs : int;  (** worker domains a window may use (1 = inline) *)
  mutable pool : Domain_pool.t option;  (** lazily created at the first parallel window *)
  (* Per-context state, index 0 aliasing the legacy fields ([rng],
     [fault_rng], [clock]) so the sequential engine is untouched. *)
  w_rngs : Rng.t array;
  w_fault_rngs : Rng.t array;
  w_clocks : float array;
  w_oseq : int array;  (** per-context event sequence; packed as [seq*16 lor ctx] *)
  mutable in_window : bool;
  (* Cross-partition events created inside a window, newest first;
     merged into the destination queues at the window barrier in fixed
     context order. *)
  outboxes : 'msg outbound list array;
  (* Environment callbacks deferred from inside a window (see
     {!defer_to_env}), newest first, tagged with the context clock at
     deferral; replayed at the barrier in (time, context, order). *)
  deferred : (float * (unit -> unit)) list array;
  mutable barrier_hooks : (unit -> unit) list;  (** run after every window, registration order *)
  mutable links_epoch : int;  (** bumped on any link-override change *)
  mutable la_epoch : int;
  mutable la : float;  (** cached lookahead, valid while [la_epoch = links_epoch] *)
  min_cross_prox : float;
  (* Addresses are dense ints handed out by [register], so the node
     table is a growable array: O(1) lookup with no hashing on the
     per-message hot path. Slots [next_addr..] are None. *)
  mutable nodes : 'msg node option array;
  mutable next_addr : addr;
  mutable liveness_epoch : int;
  links : (addr * addr, link) Hashtbl.t;
  mutable partitioned : bool;  (** any node in a group <> 0 *)
  registry : Registry.t;
  describe : 'msg -> string;
  c_sent : Counter.t;
  c_delivered : Counter.t;
  c_dropped : Counter.t;
  (* Fault-specific counters materialize on first use: they only appear
     in the registry once the corresponding fault actually occurs, so
     fault-free runs export exactly the same telemetry schema as before
     the fault-injection engine existed (the EXP1 golden fixture
     compares registry snapshots byte-for-byte). Atomics rather than
     Lazy.t because partition domains may race the first use. *)
  c_src_down : Counter.t option Atomic.t;
  c_partition : Counter.t option Atomic.t;
  c_duplicated : Counter.t option Atomic.t;
  latency : Histogram.t;
  (* Per-context kind caches: each context resolves kinds through its
     own table (no locking on the send hot path); the registry behind
     them is shared and mutex-guarded, so every table caches the same
     counter triples. *)
  by_kind : (string, kind_counters) Hashtbl.t array;
  mutable samplers : sampler list;
  (* Earliest armed sampler boundary (infinity when none): lets [step]
     skip the per-event sampler scan with one float compare. *)
  mutable next_sample : float;
}

(* The event queue pops in exact (time, seq) order — ascending time,
   FIFO among ties. tick = 1 time unit (~1 simulated ms): link
   latencies span tens to hundreds of ticks, so concurrent traffic
   spreads across slots and per-slot populations stay small. *)
let make_queue () = Timing_wheel.create ~tick:1.0 ()

let create ?(loss_rate = 0.0) ?(latency_factor = 1.0) ?registry ?(describe = fun _ -> "msg")
    ?par ~rng ~topology () =
  if loss_rate < 0.0 || loss_rate > 1.0 then
    invalid_arg (Printf.sprintf "Net.create: loss_rate must be in [0,1] (got %g)" loss_rate);
  if latency_factor <= 0.0 then
    invalid_arg
      (Printf.sprintf
         "Net.create: latency_factor must be > 0 (got %g) — a non-positive factor means zero \
          lookahead and would livelock the windowed engine"
         latency_factor);
  let registry = match registry with Some r -> r | None -> Registry.create ~name:"net" () in
  let par = match par with Some p -> p | None -> default_par () in
  let is_ctx, jobs =
    match par with
    | `Seq -> (false, 1)
    | `Domains k ->
      if k < 1 then invalid_arg (Printf.sprintf "Net.create: `Domains %d (need >= 1)" k);
      (true, Stdlib.min k num_partitions)
  in
  let nctx = if is_ctx then 1 + num_partitions else 1 in
  let fault_rng = Rng.derive rng ~salt:0x6661756c74 (* "fault" *) in
  let w_rngs =
    Array.init nctx (fun c -> if c = 0 then rng else Rng.derive rng ~salt:(0x63747800 lor c))
  in
  let w_fault_rngs =
    Array.init nctx (fun c ->
        if c = 0 then fault_rng else Rng.derive rng ~salt:(0x6661756c740 lor c))
  in
  {
    rng;
    fault_rng;
    topology;
    loss_rate;
    latency_factor;
    duplication_rate = 0.0;
    reorder_rate = 0.0;
    reorder_max_delay = 0.0;
    clock = 0.0;
    seq = 0;
    queues = Array.init nctx (fun _ -> make_queue ());
    is_ctx;
    jobs;
    pool = None;
    w_rngs;
    w_fault_rngs;
    w_clocks = Array.make nctx 0.0;
    w_oseq = Array.make nctx 0;
    in_window = false;
    outboxes = Array.make nctx [];
    deferred = Array.make nctx [];
    barrier_hooks = [];
    links_epoch = 0;
    la_epoch = -1;
    la = 0.0;
    min_cross_prox = Topology.min_cross_proximity topology;
    nodes = Array.make 1024 None;
    next_addr = 0;
    liveness_epoch = 0;
    links = Hashtbl.create 16;
    partitioned = false;
    registry;
    describe;
    c_sent = Registry.counter registry "net.sent";
    c_delivered = Registry.counter registry "net.delivered";
    c_dropped = Registry.counter registry "net.dropped";
    c_src_down = Atomic.make None;
    c_partition = Atomic.make None;
    c_duplicated = Atomic.make None;
    latency = Registry.histogram registry "net.link_latency";
    by_kind = Array.init nctx (fun _ -> Hashtbl.create 16);
    samplers = [];
    next_sample = Float.infinity;
  }

let registry t = t.registry
let parallelism t : par = if t.is_ctx then `Domains t.jobs else `Seq
let in_window t = t.in_window
let on_barrier t fn = t.barrier_hooks <- t.barrier_hooks @ [ fn ]

let shutdown t =
  match t.pool with
  | Some p ->
    t.pool <- None;
    Domain_pool.shutdown p
  | None -> ()

(* First-use counters (atomic double-checked publication; the registry
   mutex makes concurrent first uses resolve to the same counter). *)
let force_counter t cell ~labels name =
  match Atomic.get cell with
  | Some c -> c
  | None ->
    let c = Registry.counter t.registry ~labels name in
    Atomic.set cell (Some c);
    c

let c_src_down t = force_counter t t.c_src_down ~labels:[ ("cause", "src_down") ] "net.dropped"

let c_partition t =
  force_counter t t.c_partition ~labels:[ ("cause", "partition") ] "net.dropped"

let c_duplicated t = force_counter t t.c_duplicated ~labels:[] "net.duplicated"

let[@inline] current_ctx t = if t.is_ctx then Context.current () else 0

(* [Hashtbl.find], not [find_opt]: a hit, i.e. every send after a
   kind's first, then allocates no option. *)
let kind_counters t ~ctx kind =
  let tbl = Array.unsafe_get t.by_kind ctx in
  match Hashtbl.find tbl kind with
  | k -> k
  | exception Not_found ->
    let labels = [ ("kind", kind) ] in
    let k =
      {
        k_sent = Registry.counter t.registry ~labels "net.sent";
        k_delivered = Registry.counter t.registry ~labels "net.delivered";
        k_dropped = Registry.counter t.registry ~labels "net.dropped";
      }
    in
    Hashtbl.replace tbl kind k;
    k

let counters_for_kind t kind =
  let k = kind_counters t ~ctx:0 kind in
  (Counter.value k.k_sent, Counter.value k.k_delivered, Counter.value k.k_dropped)

let[@inline] node_opt t addr =
  if addr < 0 || addr >= t.next_addr then None else Array.unsafe_get t.nodes addr

let node t addr =
  match node_opt t addr with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Net: unknown address %d" addr)

let register t ~handler =
  let addr = t.next_addr in
  t.next_addr <- addr + 1;
  if addr >= Array.length t.nodes then begin
    let grown = Array.make (2 * Array.length t.nodes) None in
    Array.blit t.nodes 0 grown 0 (Array.length t.nodes);
    t.nodes <- grown
  end;
  let location = Topology.sample t.topology t.rng in
  let n_ctx =
    if not t.is_ctx then 0
    else
      (* Locality-clustered when the topology supports it (transit-stub:
         by transit domain, so every cross-partition hop crosses the
         transit core and the lookahead floor is large); otherwise by
         address, which partitions evenly but with zero lookahead. *)
      match Topology.partition_hint t.topology location with
      | Some h -> 1 + (h land (num_partitions - 1))
      | None -> 1 + (addr land (num_partitions - 1))
  in
  t.nodes.(addr) <- Some { location; handler; n_ctx; up = true; group = 0 };
  addr

let now t =
  if t.is_ctx then begin
    let c = Context.current () in
    if c = 0 then t.clock else Array.unsafe_get t.w_clocks c
  end
  else t.clock

let rng t = if t.is_ctx then t.w_rngs.(Context.current ()) else t.rng

(* --- event queues ------------------------------------------------------ *)

(* Route an event to its destination context's queue. The creating
   context assigns the sequence number from its own counter (packed
   with the context index so sequences are globally unique and
   scheduling-independent); cross-context events created inside a
   window go to the outbox and join the destination queue at the
   barrier. *)
let push_event t ~ctx time action =
  if not t.is_ctx then begin
    t.seq <- t.seq + 1;
    Timing_wheel.push t.queues.(0) ~time ~seq:t.seq action
  end
  else begin
    let dst_ctx =
      match action with
      | Deliver { dst; _ } -> (node t dst).n_ctx
      | Thunk { owner = Some a; _ } ->
        (* A node's own timers live in its partition. A thunk armed for
           a *different* partition's node from inside a partition (no
           current caller does this) falls back to the environment
           queue: correct, just serialized. *)
        let oc = (node t a).n_ctx in
        if ctx = 0 || oc = ctx then oc else 0
      | Thunk { owner = None; _ } ->
        (* Ownerless thunks stay in the scheduling context: environment
           timers stay in the environment; a handler's retry timers run
           in its own partition. *)
        ctx
    in
    let o = t.w_oseq.(ctx) + 1 in
    t.w_oseq.(ctx) <- o;
    let seq = (o lsl 4) lor ctx in
    if t.in_window && dst_ctx <> ctx then
      t.outboxes.(ctx) <-
        { o_ctx = dst_ctx; o_time = time; o_seq = seq; o_action = action } :: t.outboxes.(ctx)
    else Timing_wheel.push t.queues.(dst_ctx) ~time ~seq action
  end

let proximity t a b = Topology.proximity t.topology (node t a).location (node t b).location
let max_proximity t = Topology.max_proximity t.topology

let drop t kinds =
  Counter.incr t.c_dropped;
  Counter.incr kinds.k_dropped

(* --- fault knobs ------------------------------------------------------- *)

let set_loss_rate t rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg (Printf.sprintf "Net.set_loss_rate: rate must be in [0,1] (got %g)" rate);
  t.loss_rate <- rate

let loss_rate t = t.loss_rate

let set_duplication_rate t rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg (Printf.sprintf "Net.set_duplication_rate: rate must be in [0,1] (got %g)" rate);
  t.duplication_rate <- rate

let set_reorder t ~rate ~max_extra_delay =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg (Printf.sprintf "Net.set_reorder: rate must be in [0,1] (got %g)" rate);
  if max_extra_delay < 0.0 then
    invalid_arg
      (Printf.sprintf "Net.set_reorder: negative max_extra_delay (got %g)" max_extra_delay);
  t.reorder_rate <- rate;
  t.reorder_max_delay <- max_extra_delay

let set_link t ~src ~dst ?loss ?(delay_factor = 1.0) ?(extra_delay = 0.0) () =
  (match loss with
  | Some l when l < 0.0 || l > 1.0 ->
    invalid_arg (Printf.sprintf "Net.set_link: loss must be in [0,1] (got %g)" l)
  | _ -> ());
  if delay_factor < 0.0 then
    invalid_arg (Printf.sprintf "Net.set_link: negative delay_factor (got %g)" delay_factor);
  if extra_delay < 0.0 then
    invalid_arg (Printf.sprintf "Net.set_link: negative extra_delay (got %g)" extra_delay);
  ignore (node t src);
  ignore (node t dst);
  Hashtbl.replace t.links (src, dst)
    { lk_loss = loss; lk_delay_factor = delay_factor; lk_extra_delay = extra_delay };
  t.links_epoch <- t.links_epoch + 1

let clear_link t ~src ~dst =
  Hashtbl.remove t.links (src, dst);
  t.links_epoch <- t.links_epoch + 1

let clear_links t =
  Hashtbl.reset t.links;
  t.links_epoch <- t.links_epoch + 1

let partition t groups =
  (* Every listed node goes into the group of its list; unlisted nodes
     stay in group 0 (their own side of the cut). *)
  for a = 0 to t.next_addr - 1 do
    match Array.unsafe_get t.nodes a with Some n -> n.group <- 0 | None -> ()
  done;
  List.iteri
    (fun i members -> List.iter (fun a -> (node t a).group <- i + 1) members)
    groups;
  t.partitioned <- groups <> []

let heal_partition t =
  if t.partitioned then begin
    for a = 0 to t.next_addr - 1 do
      match Array.unsafe_get t.nodes a with Some n -> n.group <- 0 | None -> ()
    done;
    t.partitioned <- false
  end

let[@inline] same_side t src dst =
  (not t.partitioned) || (node t src).group = (node t dst).group

let reachable t ~src ~dst = same_side t src dst

(* --- lookahead --------------------------------------------------------- *)

(* The minimum delay any cross-partition message can incur: the
   topology's cross-partition proximity floor through the latency
   factor, further lowered by any cross-partition per-link override
   (delay_factor/extra_delay can shrink a link below the floor).
   Recomputed only when the link table changes; link mutations happen
   in the environment (between windows), so the value is stable within
   a window. Jitter and reorder delays only add, so this is a true
   lower bound — the conservation check at every barrier enforces it. *)
let lookahead t =
  if t.la_epoch <> t.links_epoch then begin
    let base = t.latency_factor *. t.min_cross_prox in
    let la =
      Hashtbl.fold
        (fun (src, dst) lk acc ->
          match (node_opt t src, node_opt t dst) with
          | Some a, Some b when a.n_ctx <> b.n_ctx ->
            let base_delay =
              t.latency_factor *. Topology.proximity t.topology a.location b.location
            in
            Float.min acc ((lk.lk_delay_factor *. base_delay) +. lk.lk_extra_delay)
          | _ -> acc)
        t.links base
    in
    t.la <- la;
    t.la_epoch <- t.links_epoch
  end;
  t.la

(* --- send -------------------------------------------------------------- *)

let send t ~src ~dst msg =
  let ctx = current_ctx t in
  let kinds = kind_counters t ~ctx (t.describe msg) in
  Counter.incr t.c_sent;
  Counter.incr kinds.k_sent;
  let main_rng = Array.unsafe_get t.w_rngs ctx in
  let fault_rng = Array.unsafe_get t.w_fault_rngs ctx in
  (* The jitter draw comes first and happens for every send — even ones
     that are then lost, partitioned away or suppressed — so the main
     RNG stream advances identically no matter which fault knobs are
     on: loss-vs-baseline runs see the same downstream draw sequence. *)
  let jitter = Rng.float main_rng 0.01 in
  if not (node t src).up then begin
    (* A node taken down mid-event-cascade must not emit: silent
       departure means no goodbye traffic (see Past.System.kill_node). *)
    Counter.incr (c_src_down t);
    drop t kinds
  end
  else if not (same_side t src dst) then begin
    Counter.incr (c_partition t);
    drop t kinds
  end
  else begin
    (* Fault-free runs never populate [links]; skip the tuple
       allocation and hash on that hot path. *)
    let link =
      if Hashtbl.length t.links = 0 then None else Hashtbl.find_opt t.links (src, dst)
    in
    let loss = match link with Some { lk_loss = Some l; _ } -> l | _ -> t.loss_rate in
    if loss > 0.0 && Rng.chance fault_rng loss then drop t kinds
    else begin
      let base = t.latency_factor *. proximity t src dst in
      let latency =
        match link with
        | Some { lk_delay_factor; lk_extra_delay; _ } ->
          (lk_delay_factor *. base) +. lk_extra_delay
        | None -> base
      in
      let latency =
        if t.reorder_rate > 0.0 && Rng.chance fault_rng t.reorder_rate then
          latency +. Rng.float fault_rng t.reorder_max_delay
        else latency
      in
      let clock = if ctx = 0 then t.clock else Array.unsafe_get t.w_clocks ctx in
      Histogram.observe t.latency (latency +. jitter);
      push_event t ~ctx (clock +. latency +. jitter) (Deliver { src; dst; msg; kinds });
      if t.duplication_rate > 0.0 && Rng.chance fault_rng t.duplication_rate then begin
        Counter.incr (c_duplicated t);
        let dup_jitter = Rng.float fault_rng 0.01 in
        push_event t ~ctx
          (clock +. latency +. jitter +. dup_jitter)
          (Deliver { src; dst; msg; kinds })
      end
    end
  end

let schedule ?owner t ~delay run =
  if delay < 0.0 then invalid_arg "Net.schedule: negative delay";
  let ctx = current_ctx t in
  let clock = if ctx = 0 then t.clock else Array.unsafe_get t.w_clocks ctx in
  push_event t ~ctx (clock +. delay) (Thunk { owner; run })

let set_alive t addr up =
  t.liveness_epoch <- t.liveness_epoch + 1;
  (node t addr).up <- up

let alive t addr = (node t addr).up
let liveness_epoch t = t.liveness_epoch
let node_count t = t.next_addr

let dispatch t = function
  | Deliver { src; dst; msg; kinds } -> (
    match node_opt t dst with
    | Some n when n.up && same_side t src dst ->
      Counter.incr t.c_delivered;
      Counter.incr kinds.k_delivered;
      n.handler src msg
    | Some _ | None -> drop t kinds)
  | Thunk { owner; run } -> (
    match owner with
    | Some a when not (alive t a) -> ()
    | Some _ | None -> run ())

(* --- sim-time sampling -------------------------------------------------- *)

let add_sampler t ~interval fn =
  if interval <= 0.0 then invalid_arg "Net.add_sampler: interval must be positive";
  let next = t.clock +. interval in
  t.samplers <- { s_interval = interval; s_next = next; s_fn = fn } :: t.samplers;
  if next < t.next_sample then t.next_sample <- next

(* Fire every sampler boundary <= limit, earliest first across all
   samplers, advancing the clock to each boundary. Samplers are lazy:
   no queue events are involved, so an armed sampler never keeps [run]
   from quiescing once real events dry up. The cached [next_sample]
   minimum makes the common no-boundary-crossed case one float compare
   per event (see [step]). *)
let fire_samplers t limit =
  if t.samplers <> [] then begin
    let continue = ref true in
    while !continue do
      let earliest =
        List.fold_left
          (fun acc s ->
            match acc with
            | Some (a : sampler) when a.s_next <= s.s_next -> acc
            | _ -> Some s)
          None t.samplers
      in
      match earliest with
      | Some s when s.s_next <= limit ->
        let at = s.s_next in
        t.clock <- Stdlib.max t.clock at;
        s.s_next <- at +. s.s_interval;
        s.s_fn at
      | _ ->
        (match earliest with Some s -> t.next_sample <- s.s_next | None -> ());
        continue := false
    done
  end

(* --- sequential engine ------------------------------------------------- *)

(* Run the minimum event of [q], due at [time] (its
   {!Timing_wheel.min_time}): fire the sampler boundaries it crosses,
   advance the clock, dispatch. *)
let step_seq_at t q time =
  if time >= t.next_sample then fire_samplers t time;
  let action = Timing_wheel.pop_min q in
  if time > t.clock then t.clock <- time;
  dispatch t action

let step_seq t =
  let q = t.queues.(0) in
  if Timing_wheel.is_empty q then false
  else begin
    step_seq_at t q (Timing_wheel.min_time q);
    true
  end

let run_seq ?until ?(max_events = max_int) t =
  let q = t.queues.(0) in
  let continue = ref true in
  let count = ref 0 in
  while !continue && !count < max_events do
    if Timing_wheel.is_empty q then begin
      (match until with Some limit -> fire_samplers t limit | None -> ());
      continue := false
    end
    else begin
      let time = Timing_wheel.min_time q in
      match until with
      | Some limit when time > limit ->
        fire_samplers t limit;
        t.clock <- limit;
        continue := false
      | _ ->
        step_seq_at t q time;
        incr count
    end
  done

(* --- windowed (conservative parallel) engine --------------------------- *)

(* The context whose queue holds the globally minimal (time, seq)
   event, or -1 when every queue is empty. Sequences are globally
   unique (packed with the creating context), so the minimum is
   unambiguous. *)
let global_min t =
  let best = ref (-1) and best_time = ref 0.0 and best_seq = ref 0 in
  for c = 0 to Array.length t.queues - 1 do
    let q = t.queues.(c) in
    if not (Timing_wheel.is_empty q) then begin
      let time = Timing_wheel.min_time q and seq = Timing_wheel.min_seq q in
      if !best < 0 || time < !best_time || (time = !best_time && seq < !best_seq) then begin
        best := c;
        best_time := time;
        best_seq := seq
      end
    end
  done;
  !best

(* Process one event in exact global (time, seq) order — the windowed
   engine's sequential fallback, used by [step], by bounded [run
   ~max_events], and when the lookahead is degenerate. Dispatches with
   the owning context current, so RNG draws and telemetry shards are
   the same as when the event runs inside a window. *)
let step_ctx t =
  let c = global_min t in
  if c < 0 then false
  else begin
    let q = t.queues.(c) in
    let time = Timing_wheel.min_time q in
    if time >= t.next_sample then fire_samplers t time;
    let action = Timing_wheel.pop_min q in
    if time > t.clock then t.clock <- time;
    if c > 0 then begin
      if time > Array.unsafe_get t.w_clocks c then t.w_clocks.(c) <- time;
      Context.set c
    end;
    Fun.protect
      ~finally:(fun () -> if c > 0 then Context.set 0)
      (fun () -> dispatch t action);
    true
  end

let get_pool t =
  match t.pool with
  | Some p -> p
  | None ->
    (* Results are worker-count independent (the partition slices and
       the merge order are fixed by the window protocol), so capping at
       the hardware parallelism is purely a scheduling decision: on a
       single-core host [`Domains 4] degrades to inline execution
       instead of four domains time-slicing one core through every
       stop-the-world minor collection. *)
    let p = Domain_pool.create ~jobs:(Stdlib.min t.jobs (Domain.recommended_domain_count ())) in
    t.pool <- Some p;
    p

(* Is [q]'s next event due before [limit]? *)
let due_before q limit = (not (Timing_wheel.is_empty q)) && Timing_wheel.min_time q < limit

(* Execute one partition's slice of the window [w_start, w_limit):
   pop-and-dispatch every owned event below the limit. Intra-partition
   sends land back in this queue (possibly inside the window — the
   wheel keeps exact order); cross-partition sends accumulate in the
   outbox. *)
let run_partition t c ~w_start ~w_limit =
  Context.set c;
  Fun.protect
    ~finally:(fun () -> Context.set 0)
    (fun () ->
      if Array.unsafe_get t.w_clocks c < w_start then t.w_clocks.(c) <- w_start;
      let q = t.queues.(c) in
      while due_before q w_limit do
        let time = Timing_wheel.min_time q in
        let action = Timing_wheel.pop_min q in
        if time > Array.unsafe_get t.w_clocks c then t.w_clocks.(c) <- time;
        dispatch t action
      done)

(* Window barrier, part 1: merge every outbox into the destination
   queues in fixed context order. Events were sequenced at creation,
   so the merge order only decides the wheel's internal layout, never
   pop order. The lookahead guarantee is checked here: a cross-window
   event landing inside the window just executed would mean causality
   was already violated. *)
let merge_outboxes t ~w_limit =
  for c = 1 to num_partitions do
    match t.outboxes.(c) with
    | [] -> ()
    | newest_first ->
      t.outboxes.(c) <- [];
      List.iter
        (fun o ->
          if o.o_time < w_limit then
            failwith
              (Printf.sprintf
                 "Net: conservation violated: cross-partition event at t=%.6f inside the \
                  window ending at %.6f (lookahead too large)"
                 o.o_time w_limit);
          Timing_wheel.push t.queues.(o.o_ctx) ~time:o.o_time ~seq:o.o_seq o.o_action)
        (List.rev newest_first)
  done

(* Window barrier, part 2: replay callbacks the partitions deferred to
   the environment, in (time, context, insertion) order, advancing the
   environment clock to each callback's deferral time so [now] inside
   the callback reads the originating event's time. *)
let run_deferred t =
  let any = ref false in
  for c = 1 to num_partitions do
    if t.deferred.(c) <> [] then any := true
  done;
  if !any then begin
    let batches = ref [] in
    for c = num_partitions downto 1 do
      match t.deferred.(c) with
      | [] -> ()
      | newest_first ->
        t.deferred.(c) <- [];
        batches := List.map (fun (tm, fn) -> (tm, c, fn)) (List.rev newest_first) :: !batches
    done;
    !batches |> List.concat
    |> List.stable_sort (fun (t1, c1, _) (t2, c2, _) ->
           match Float.compare t1 t2 with 0 -> Stdlib.compare c1 c2 | c -> c)
    |> List.iter (fun (tm, _, fn) ->
           if tm > t.clock then t.clock <- tm;
           fn ())
  end

let defer_to_env t fn =
  if t.is_ctx && t.in_window then begin
    let c = Context.current () in
    if c = 0 then fn ()
    else t.deferred.(c) <- (Array.unsafe_get t.w_clocks c, fn) :: t.deferred.(c)
  end
  else fn ()

let run_window t ~w_start ~w_limit =
  let active = ref [] in
  for c = num_partitions downto 1 do
    if due_before t.queues.(c) w_limit then active := c :: !active
  done;
  t.in_window <- true;
  Fun.protect
    ~finally:(fun () -> t.in_window <- false)
    (fun () ->
      match !active with
      | [] -> ()
      | [ c ] -> run_partition t c ~w_start ~w_limit
      | cs ->
        if t.jobs <= 1 then List.iter (fun c -> run_partition t c ~w_start ~w_limit) cs
        else
          ignore
            (Domain_pool.map (get_pool t) (fun c -> run_partition t c ~w_start ~w_limit) cs
              : unit list));
  merge_outboxes t ~w_limit;
  run_deferred t;
  List.iter (fun fn -> fn ()) t.barrier_hooks;
  if w_start > t.clock then t.clock <- w_start

(* One scheduling decision of the windowed engine: either the next
   event is an environment event (run it inline — environment events
   mutate global state like liveness and links, so they act as
   barriers), or a window [m, m + lookahead) of partition events is
   executed — in parallel when more than one partition has work. The
   window never extends past the next environment event, sampler
   boundary, or [until]: those are points the lock-step schedule must
   observe in global order. *)
let advance_ctx t ~until =
  let c = global_min t in
  if c < 0 then begin
    (match until with Some limit -> fire_samplers t limit | None -> ());
    false
  end
  else begin
    let m = Timing_wheel.min_time t.queues.(c) in
    match until with
    | Some limit when m > limit ->
      fire_samplers t limit;
      t.clock <- limit;
      false
    | _ ->
      if m >= t.next_sample then fire_samplers t m;
      let env = t.queues.(0) in
      let env_empty = Timing_wheel.is_empty env in
      if (not env_empty) && Timing_wheel.min_time env <= m then
        (* Environment event at the frontier: run it sequentially. *)
        ignore (step_ctx t : bool)
      else begin
        let la = lookahead t in
        let w_limit = m +. la in
        let w_limit =
          if env_empty then w_limit else Float.min w_limit (Timing_wheel.min_time env)
        in
        let w_limit = Float.min w_limit t.next_sample in
        let w_limit =
          match until with Some limit -> Float.min w_limit (Float.succ limit) | None -> w_limit
        in
        if w_limit <= m then
          (* Degenerate lookahead (zero-delay cross-partition links or a
             topology with no locality floor): fall back to exact
             sequential stepping — same schedule, no windows. *)
          ignore (step_ctx t : bool)
        else run_window t ~w_start:m ~w_limit
      end;
      true
  end

let run_ctx ?until ?(max_events = max_int) t =
  if max_events <> max_int then begin
    (* Bounded runs need an exact per-event count: step sequentially. *)
    let continue = ref true in
    let count = ref 0 in
    while !continue && !count < max_events do
      let c = global_min t in
      if c < 0 then begin
        (match until with Some limit -> fire_samplers t limit | None -> ());
        continue := false
      end
      else begin
        let time = Timing_wheel.min_time t.queues.(c) in
        match until with
        | Some limit when time > limit ->
          fire_samplers t limit;
          t.clock <- limit;
          continue := false
        | _ ->
          ignore (step_ctx t : bool);
          incr count
      end
    done
  end
  else begin
    let continue = ref true in
    while !continue do
      continue := advance_ctx t ~until
    done
  end

let step t = if t.is_ctx then step_ctx t else step_seq t

let run ?until ?max_events t =
  if t.is_ctx then run_ctx ?until ?max_events t else run_seq ?until ?max_events t

let messages_sent t = Counter.value t.c_sent
let messages_delivered t = Counter.value t.c_delivered
let messages_dropped t = Counter.value t.c_dropped

let opt_value cell = match Atomic.get cell with Some c -> Counter.value c | None -> 0
let messages_dropped_src_down t = opt_value t.c_src_down
let messages_dropped_partition t = opt_value t.c_partition
let messages_duplicated t = opt_value t.c_duplicated

let opt_reset cell = match Atomic.get cell with Some c -> Counter.reset c | None -> ()

let reset_counters t =
  Counter.reset t.c_sent;
  Counter.reset t.c_delivered;
  Counter.reset t.c_dropped;
  opt_reset t.c_src_down;
  opt_reset t.c_partition;
  opt_reset t.c_duplicated;
  Histogram.reset t.latency;
  Array.iter
    (fun tbl ->
      Hashtbl.iter
        (fun _ k ->
          Counter.reset k.k_sent;
          Counter.reset k.k_delivered;
          Counter.reset k.k_dropped)
        tbl)
    t.by_kind
