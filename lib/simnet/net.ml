module Rng = Past_stdext.Rng
module Timing_wheel = Past_stdext.Timing_wheel
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter
module Histogram = Past_telemetry.Histogram

type addr = int

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

type 'msg node = {
  handler : addr -> 'msg -> unit;
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
  mutable duplication_rate : float;
  mutable reorder_rate : float;
  mutable reorder_max_delay : float;
  mutable clock : float;  (** never decreases *)
  mutable seq : int;  (** event sequence: FIFO tie-break among equal times *)
  queue : 'msg action Timing_wheel.t;
  (* Addresses are dense ints handed out by [register], so the node
     table is a growable array: O(1) lookup with no hashing on the
     per-message hot path. Slots [next_addr..] are None. *)
  mutable nodes : 'msg node option array;
  (* Node locations, unboxed: location [a] is the [Topology.stride]
     floats at [Topology.stride * a]. Proximity runs per send and per
     learned peer and reads this array alone, never a node record. *)
  mutable coords : float array;
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
     compares registry snapshots byte-for-byte). *)
  c_src_down : Counter.t Lazy.t;
  c_partition : Counter.t Lazy.t;
  c_duplicated : Counter.t Lazy.t;
  latency : Histogram.t;
  (* One entry per kind met so far, in order of first use. A
     [describe] returns one of a fixed set of string literals, so a
     physical-equality scan finds a message's counters without hashing
     its name; a name built afresh is found by the [String.equal] scan
     that follows, so each distinct kind still gets exactly one entry. *)
  mutable kinds : (string * kind_counters) array;
  mutable samplers : sampler list;
  (* Earliest armed sampler boundary (infinity when none): lets [step]
     skip the per-event sampler scan with one float compare. *)
  mutable next_sample : float;
}

let create ?(loss_rate = 0.0) ?registry ?(describe = fun _ -> "msg") ~rng ~topology () =
  if loss_rate < 0.0 || loss_rate > 1.0 then
    invalid_arg (Printf.sprintf "Net.create: loss_rate must be in [0,1] (got %g)" loss_rate);
  let registry = match registry with Some r -> r | None -> Registry.create ~name:"net" () in
  {
    rng;
    fault_rng = Rng.derive rng ~salt:0x6661756c74 (* "fault" *);
    topology;
    loss_rate;
    duplication_rate = 0.0;
    reorder_rate = 0.0;
    reorder_max_delay = 0.0;
    clock = 0.0;
    seq = 0;
    (* The queue pops in exact (time, seq) order — ascending time, FIFO
       among ties. tick = 1 time unit (~1 simulated ms): link latencies
       span tens to hundreds of ticks, so concurrent traffic spreads
       across slots and per-slot populations stay small. *)
    queue = Timing_wheel.create ();
    nodes = Array.make 1024 None;
    coords = Array.make (1024 * Topology.stride) 0.0;
    next_addr = 0;
    liveness_epoch = 0;
    links = Hashtbl.create 16;
    partitioned = false;
    registry;
    describe;
    c_sent = Registry.counter registry "net.sent";
    c_delivered = Registry.counter registry "net.delivered";
    c_dropped = Registry.counter registry "net.dropped";
    c_src_down =
      lazy (Registry.counter registry ~labels:[ ("cause", "src_down") ] "net.dropped");
    c_partition =
      lazy (Registry.counter registry ~labels:[ ("cause", "partition") ] "net.dropped");
    c_duplicated = lazy (Registry.counter registry "net.duplicated");
    latency = Registry.histogram registry "net.link_latency";
    kinds = [||];
    samplers = [];
    next_sample = Float.infinity;
  }

let registry t = t.registry

let rec phys_index kinds kind i =
  if i = Array.length kinds then -1
  else if fst (Array.unsafe_get kinds i) == kind then i
  else phys_index kinds kind (i + 1)

let rec equal_index kinds kind i =
  if i = Array.length kinds then -1
  else if String.equal (fst (Array.unsafe_get kinds i)) kind then i
  else equal_index kinds kind (i + 1)

(* A kind's registry rows appear on its first use. *)
let kind_counters t kind =
  let i = phys_index t.kinds kind 0 in
  let i = if i >= 0 then i else equal_index t.kinds kind 0 in
  if i >= 0 then snd (Array.unsafe_get t.kinds i)
  else begin
    let labels = [ ("kind", kind) ] in
    let k =
      {
        k_sent = Registry.counter t.registry ~labels "net.sent";
        k_delivered = Registry.counter t.registry ~labels "net.delivered";
        k_dropped = Registry.counter t.registry ~labels "net.dropped";
      }
    in
    t.kinds <- Array.append t.kinds [| (kind, k) |];
    k
  end

let counters_for_kind t kind =
  let k = kind_counters t kind in
  (Counter.value k.k_sent, Counter.value k.k_delivered, Counter.value k.k_dropped)

let[@inline] node_opt t addr =
  if addr < 0 || addr >= t.next_addr then None else Array.unsafe_get t.nodes addr

let unknown addr = invalid_arg (Printf.sprintf "Net: unknown address %d" addr)

let node t addr =
  match node_opt t addr with
  | Some n -> n
  | None -> unknown addr

let register t ~handler =
  let addr = t.next_addr in
  t.next_addr <- addr + 1;
  if addr >= Array.length t.nodes then begin
    let grown = Array.make (2 * Array.length t.nodes) None in
    Array.blit t.nodes 0 grown 0 (Array.length t.nodes);
    t.nodes <- grown;
    let coords = Array.make (2 * Array.length t.coords) 0.0 in
    Array.blit t.coords 0 coords 0 (Array.length t.coords);
    t.coords <- coords
  end;
  Topology.sample t.topology t.rng t.coords addr;
  t.nodes.(addr) <- Some { handler; up = true; group = 0 };
  addr

let now t = t.clock
let rng t = t.rng

let push_event t time action =
  t.seq <- t.seq + 1;
  Timing_wheel.push t.queue ~time ~seq:t.seq action

let[@inline] proximity t a b =
  if b < 0 || b >= t.next_addr then unknown b;
  if a < 0 || a >= t.next_addr then unknown a;
  Topology.proximity t.topology t.coords a b

let drop t kinds =
  Counter.incr t.c_dropped;
  Counter.incr kinds.k_dropped

(* --- fault knobs ------------------------------------------------------- *)

let set_loss_rate t rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg (Printf.sprintf "Net.set_loss_rate: rate must be in [0,1] (got %g)" rate);
  t.loss_rate <- rate

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
    { lk_loss = loss; lk_delay_factor = delay_factor; lk_extra_delay = extra_delay }

let clear_link t ~src ~dst = Hashtbl.remove t.links (src, dst)

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

(* --- send -------------------------------------------------------------- *)

let send t ~src ~dst msg =
  let kinds = kind_counters t (t.describe msg) in
  Counter.incr t.c_sent;
  Counter.incr kinds.k_sent;
  (* The jitter draw comes first and happens for every send — even ones
     that are then lost, partitioned away or suppressed — so the main
     RNG stream advances identically no matter which fault knobs are
     on: loss-vs-baseline runs see the same downstream draw sequence. *)
  let jitter = Rng.float t.rng 0.01 in
  if not (node t src).up then begin
    (* A node taken down mid-event-cascade must not emit: silent
       departure means no goodbye traffic (see Past.System.kill_node). *)
    Counter.incr (Lazy.force t.c_src_down);
    drop t kinds
  end
  else if not (same_side t src dst) then begin
    Counter.incr (Lazy.force t.c_partition);
    drop t kinds
  end
  else begin
    (* Fault-free runs never populate [links]; skip the tuple
       allocation and hash on that hot path. *)
    let link =
      if Hashtbl.length t.links = 0 then None else Hashtbl.find_opt t.links (src, dst)
    in
    let loss = match link with Some { lk_loss = Some l; _ } -> l | _ -> t.loss_rate in
    if loss > 0.0 && Rng.chance t.fault_rng loss then drop t kinds
    else begin
      let base = proximity t src dst in
      let latency =
        match link with
        | Some { lk_delay_factor; lk_extra_delay; _ } ->
          (lk_delay_factor *. base) +. lk_extra_delay
        | None -> base
      in
      let latency =
        if t.reorder_rate > 0.0 && Rng.chance t.fault_rng t.reorder_rate then
          latency +. Rng.float t.fault_rng t.reorder_max_delay
        else latency
      in
      Histogram.observe t.latency (latency +. jitter);
      push_event t (t.clock +. latency +. jitter) (Deliver { src; dst; msg; kinds });
      if t.duplication_rate > 0.0 && Rng.chance t.fault_rng t.duplication_rate then begin
        Counter.incr (Lazy.force t.c_duplicated);
        let dup_jitter = Rng.float t.fault_rng 0.01 in
        push_event t
          (t.clock +. latency +. jitter +. dup_jitter)
          (Deliver { src; dst; msg; kinds })
      end
    end
  end

let schedule ?owner t ~delay run =
  if delay < 0.0 then invalid_arg "Net.schedule: negative delay";
  push_event t (t.clock +. delay) (Thunk { owner; run })

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

(* --- event loop --------------------------------------------------------- *)

(* Run the minimum event, due at [time] (its {!Timing_wheel.min_time}):
   fire the sampler boundaries it crosses, advance the clock,
   dispatch. *)
let step_at t time =
  if time >= t.next_sample then fire_samplers t time;
  let action = Timing_wheel.pop_min t.queue in
  if time > t.clock then t.clock <- time;
  dispatch t action

let step t =
  if Timing_wheel.is_empty t.queue then false
  else begin
    step_at t (Timing_wheel.min_time t.queue);
    true
  end

let run ?until t =
  let q = t.queue in
  let continue = ref true in
  while !continue do
    if Timing_wheel.is_empty q then begin
      (match until with Some limit -> fire_samplers t limit | None -> ());
      continue := false
    end
    else begin
      let time = Timing_wheel.min_time q in
      match until with
      | Some limit when time > limit ->
        fire_samplers t limit;
        (* A limit already in the past leaves the clock alone: time
           never runs backwards, so a thunk scheduled next is still due
           at [now + delay]. *)
        if limit > t.clock then t.clock <- limit;
        continue := false
      | _ -> step_at t time
    end
  done

let messages_sent t = Counter.value t.c_sent
let messages_delivered t = Counter.value t.c_delivered
let messages_dropped t = Counter.value t.c_dropped

let opt_value c = if Lazy.is_val c then Counter.value (Lazy.force c) else 0
let messages_dropped_src_down t = opt_value t.c_src_down
let messages_dropped_partition t = opt_value t.c_partition
let messages_duplicated t = opt_value t.c_duplicated
