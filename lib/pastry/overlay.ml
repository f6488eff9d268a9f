module Id = Past_id.Id
module Net = Past_simnet.Net
module Rng = Past_stdext.Rng
module Topology = Past_simnet.Topology

type 'a t = {
  net : 'a Message.t Net.t;
  config : Config.t;
  rng : Rng.t;
  mutable nodes_rev : 'a Node.t list; (* newest first *)
  mutable count : int;
  mutable nodes_cache : 'a Node.t array option;
  (* Dense address → node table (addresses are the simulator's small
     ints) and the overlay-wide peer directory / telemetry bundle
     shared by every node's compact state. [shared] is created at the
     first node so registry rows appear exactly when they always
     did. *)
  mutable by_addr : 'a Node.t option array;
  dir : Directory.t;
  mutable shared : Node.shared option;
  mutable sorted : 'a Node.t array; (* by id; rebuilt lazily *)
  mutable sorted_valid : bool;
  (* Live-node array in insertion order, revalidated against the
     network's liveness epoch and the node count: [random_live_node]
     and [live_nodes] run per lookup in every experiment, so they must
     not materialize the live set each call. *)
  mutable live : 'a Node.t array;
  mutable live_epoch : int; (* Net.liveness_epoch at build; -1 = never built *)
  mutable live_count_at : int; (* node_count at build *)
}

let net t = t.net
let config t = t.config
let rng t = t.rng
let registry t = Net.registry t.net

let nodes t =
  match t.nodes_cache with
  | Some a -> a
  | None ->
    let a = Array.of_list (List.rev t.nodes_rev) in
    t.nodes_cache <- Some a;
    a

let node_count t = t.count

let by_addr_find t addr =
  if addr >= 0 && addr < Array.length t.by_addr then t.by_addr.(addr) else None

let node_by_addr t addr =
  match by_addr_find t addr with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Overlay.node_by_addr: unknown address %d" addr)

let add_node_with_id t ~id =
  let shared =
    match t.shared with
    | Some s -> s
    | None ->
      let s = Node.shared_of_registry (Net.registry t.net) in
      t.shared <- Some s;
      s
  in
  let node =
    Node.create ~dir:t.dir ~shared ~net:t.net ~config:t.config ~rng:(Rng.split t.rng) ~id ()
  in
  t.nodes_rev <- node :: t.nodes_rev;
  t.count <- t.count + 1;
  t.nodes_cache <- None;
  let addr = Node.addr node in
  (if addr >= Array.length t.by_addr then begin
     let fresh = Array.make (Stdlib.max (addr + 1) (Stdlib.max 1024 (2 * Array.length t.by_addr))) None in
     Array.blit t.by_addr 0 fresh 0 (Array.length t.by_addr);
     t.by_addr <- fresh
   end);
  t.by_addr.(addr) <- Some node;
  t.sorted_valid <- false;
  node

let add_node t = add_node_with_id t ~id:(Id.random t.rng ~width:Id.node_bits)

let sorted_nodes t =
  if not t.sorted_valid then begin
    let s = Array.copy (nodes t) in
    Array.sort (fun a b -> Id.compare (Node.id a) (Node.id b)) s;
    t.sorted <- s;
    t.sorted_valid <- true
  end;
  t.sorted

let alive t node = Net.alive t.net (Node.addr node)

(* Live nodes in insertion order, cached until a node is added or any
   liveness bit flips (tracked by the network's liveness epoch). The
   insertion order and the single bounded draw in [random_live_node]
   match the historical list-based implementation, so fixed-seed runs
   are byte-identical. *)
let live_array t =
  let epoch = Net.liveness_epoch t.net in
  if t.live_epoch <> epoch || t.live_count_at <> t.count then begin
    t.live <- Array.of_list (List.filter (alive t) (List.rev t.nodes_rev));
    t.live_epoch <- epoch;
    t.live_count_at <- t.count
  end;
  t.live

let live_nodes t = Array.to_list (live_array t)

(* Leaf-set symmetry invariant: if live node y sits in live node x's
   leaf set, x must sit in y's (ring-position symmetry of "among the
   l/2 closest per side"). Any single pair is transiently asymmetric
   while failure detection and repair converge on a churned membership,
   so each asymmetric (holder, member) pair gets its own clock; only a
   pair still asymmetric a full detection-plus-repair cycle after first
   sighting is an error.

   Discovery is round-robin sampled (a bounded batch of holders per
   tick, so the predicate stays O(1) per sample regardless of overlay
   size), but every *clocked* pair is re-verified on every tick: a pair
   sitting exactly at the member's l/2 boundary flaps in and out of its
   leaf set as churn elsewhere evicts and re-admits it, and a clock
   only checked when the cursor swings by would alias those brief,
   legitimate asymmetric phases into one long "continuous" violation.

   Asymmetry is only an error when y's leaf set *covers* x's id: x may
   legitimately hold y as a farther-than-l/2 entry (sparse knowledge on
   an underpopulated side) while y correctly prefers l/2 strictly
   closer members — that state is stable and correct, not a repair
   failure. A dead endpoint ends the episode: the repair that follows
   recovery is a fresh episode with a fresh grace. *)
let install_monitors t =
  let module Monitor = Past_telemetry.Monitor in
  let monitors = Past_telemetry.Registry.monitors (Net.registry t.net) in
  if Monitor.active monitors then begin
    let cursor = ref 0 in
    let tick_no = ref 0 in
    let pair_grace =
      4.0 *. (t.config.Config.keepalive_period +. t.config.Config.failure_timeout)
    in
    let pair_since : (int * int, float) Hashtbl.t = Hashtbl.create 32 in
    Monitor.register monitors ~name:"pastry.leaf_symmetry" (fun ~now ->
        incr tick_no;
        let discovery = !tick_no land 3 = 0 in
        (* Fast path for the common tick: no clocked pairs to re-verify
           and no discovery scheduled — skip building the live array. *)
        if (not discovery) && Hashtbl.length pair_since = 0 then Ok ()
        else
        let live = live_array t in
        let n = Array.length live in
        if n < 2 then Ok ()
        else begin
          (* Is the (holder, member) pair asymmetric right now? Any
             other state — an endpoint dead or unjoined, the holder no
             longer holding the member, the member holding the holder,
             or the member legitimately excluding it — ends the
             episode. *)
          let asymmetric holder_addr member_addr =
            match
              (by_addr_find t holder_addr, by_addr_find t member_addr)
            with
            | Some holder, Some member
              when Net.alive t.net holder_addr
                   && Net.alive t.net member_addr
                   && Node.joined holder && Node.joined member
                   && Leaf_set.mem_addr (Node.leaf_set holder) member_addr ->
              (not (Leaf_set.mem_addr (Node.leaf_set member) holder_addr))
              && Leaf_set.covers (Node.leaf_set member) (Node.id holder)
            | _ -> false
          in
          let fault = ref None in
          let resolved =
            Hashtbl.fold
              (fun ((a, b) as pair) since acc ->
                if asymmetric a b then begin
                  if now -. since > pair_grace && !fault = None then
                    fault :=
                      Some
                        (Printf.sprintf
                           "node@%d holds node@%d in its leaf set, but not vice versa, for \
                            %.0f sim-ms"
                           a b (now -. since));
                  acc
                end
                else pair :: acc)
              pair_since []
          in
          List.iter (Hashtbl.remove pair_since) resolved;
          (* Discovery — starting clocks for new asymmetric pairs — only
             needs to notice a pair well within its grace window, so it
             runs on a fraction of the ticks; the clocked re-verification
             above stays every-tick (coarser sampling there aliases
             brief legitimate flapping into long violations). *)
          if discovery then begin
            let batch = Stdlib.min n 8 in
            for i = 0 to batch - 1 do
              let node = live.((!cursor + i) mod n) in
              let addr = Node.addr node in
              if Node.joined node then
                List.iter
                  (fun (p : Peer.t) ->
                    let pair = (addr, p.Peer.addr) in
                    if (not (Hashtbl.mem pair_since pair)) && asymmetric addr p.Peer.addr then
                      Hashtbl.replace pair_since pair now)
                  (Leaf_set.members (Node.leaf_set node))
            done;
            cursor := (!cursor + batch) mod n
          end;
          match !fault with None -> Ok () | Some d -> Error d
        end);
    Net.add_sampler t.net ~interval:t.config.Config.keepalive_period (fun now ->
        Monitor.tick monitors ~now)
  end

let create ?(config = Config.default) ?topology ?(loss_rate = 0.0) ?trace_capacity ~seed () =
  Config.validate config;
  let rng = Rng.create seed in
  let topology = match topology with Some t -> t | None -> Topology.plane () in
  let registry = Past_telemetry.Registry.create ~name:"overlay" ?trace_capacity () in
  let net =
    Net.create ~loss_rate ~registry ~describe:Message.describe ~rng:(Rng.split rng) ~topology ()
  in
  let t =
    {
      net;
      config;
      rng;
      nodes_rev = [];
      count = 0;
      nodes_cache = None;
      by_addr = [||];
      dir = Directory.create ();
      shared = None;
      sorted = [||];
      sorted_valid = true;
      live = [||];
      live_epoch = -1;
      live_count_at = -1;
    }
  in
  install_monitors t;
  t

let random_node t =
  let a = nodes t in
  a.(Rng.int t.rng (Array.length a))

let random_live_node t =
  let live = live_array t in
  if Array.length live = 0 then invalid_arg "Overlay.random_live_node: no live nodes";
  live.(Rng.int t.rng (Array.length live))

(* The k circularly-nearest live nodes lie among the k nearest live
   nodes in each ring direction from the key's insertion point, so
   collect k live per side and sort by circular distance. *)
let nearest_live t key ~k =
  let s = sorted_nodes t in
  let n = Array.length s in
  if n = 0 then invalid_arg "Overlay.nearest_live: empty overlay";
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Id.compare (Node.id s.(mid)) key < 0 then lo := mid + 1 else hi := mid
  done;
  let candidates = Hashtbl.create (4 * k) in
  let collect start step =
    let found = ref 0 and visited = ref 0 and idx = ref start in
    while !found < k && !visited < n do
      let i = ((!idx mod n) + n) mod n in
      let node = s.(i) in
      if alive t node then begin
        if not (Hashtbl.mem candidates (Node.addr node)) then
          Hashtbl.replace candidates (Node.addr node) node;
        incr found
      end;
      idx := !idx + step;
      incr visited
    done
  in
  collect !lo 1;
  collect (!lo - 1) (-1);
  Hashtbl.fold (fun _ node acc -> node :: acc) candidates []
  |> List.sort (fun a b -> Id.closer ~target:key (Node.id a) (Node.id b))
  |> List.filteri (fun i _ -> i < k)

let closest_live_node t key =
  match nearest_live t key ~k:1 with
  | [ n ] -> n
  | _ -> invalid_arg "Overlay.closest_live_node: no live nodes"

let sorted_neighbours t key ~k = nearest_live t key ~k

let install_apps t make_app = Array.iter (fun n -> Node.set_app n (make_app n)) (nodes t)

(* --- static construction --------------------------------------------- *)

(* Inclusive id bounds of the prefix "first [r] digits of [id], then
   digit [col]" — the candidate range for routing cell (r, col). *)
let prefix_bounds ~b id r col =
  let nbytes = Id.node_bits / 8 in
  let per_byte = 8 / b in
  let lo = Bytes.make nbytes '\000' and hi = Bytes.make nbytes '\255' in
  let raw = Id.to_bytes id in
  let full_bytes = r / per_byte in
  Bytes.blit raw 0 lo 0 full_bytes;
  Bytes.blit raw 0 hi 0 full_bytes;
  (* Byte containing digit r: keep the digits above slot, set slot=col,
     then 0s (lo) / 1s (hi). *)
  let slot = r mod per_byte in
  let v = Char.code (Bytes.get raw full_bytes) in
  let keep_bits = slot * b in
  let keep_mask = if keep_bits = 0 then 0 else lnot ((1 lsl (8 - keep_bits)) - 1) land 0xFF in
  let kept = v land keep_mask in
  let col_shift = 8 - keep_bits - b in
  let lo_byte = kept lor (col lsl col_shift) in
  let hi_byte = lo_byte lor ((1 lsl col_shift) - 1) in
  Bytes.set lo full_bytes (Char.chr lo_byte);
  Bytes.set hi full_bytes (Char.chr hi_byte);
  (Id.of_bytes lo, Id.of_bytes hi)

let range_of t lo hi =
  let s = sorted_nodes t in
  let n = Array.length s in
  let lower key =
    let a = ref 0 and b = ref n in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if Id.compare (Node.id s.(mid)) key < 0 then a := mid + 1 else b := mid
    done;
    !a
  in
  let upper key =
    let a = ref 0 and b = ref n in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if Id.compare (Node.id s.(mid)) key <= 0 then a := mid + 1 else b := mid
    done;
    !a
  in
  (lower lo, upper hi)

let populate_static ?(locality = true) ?(rt_samples = 8) t =
  let s = sorted_nodes t in
  let total = Array.length s in
  let b = t.config.Config.b in
  let half = t.config.Config.leaf_set_size / 2 in
  Array.iteri
    (fun i node ->
      (* Exact leaf set from ring order. *)
      for d = 1 to Stdlib.min half (total - 1) do
        Node.learn node (Node.self s.((i + d) mod total));
        Node.learn node (Node.self s.(((i - d) mod total + total) mod total))
      done;
      (* Routing table: per cell, proximity-closest of a candidate
         sample (or uniform when locality is off). *)
      let id = Node.id node in
      let continue = ref true in
      let row = ref 0 in
      while !continue && !row < Config.rows t.config do
        let own_digit = Id.digit ~b id !row in
        for col = 0 to Config.cols t.config - 1 do
          if col <> own_digit then begin
            let lo, hi = prefix_bounds ~b id !row col in
            let lo_i, hi_i = range_of t lo hi in
            let size = hi_i - lo_i in
            if size > 0 then begin
              let pick () = s.(lo_i + Rng.int t.rng size) in
              let chosen =
                if not locality then pick ()
                else begin
                  let best = ref (pick ()) in
                  let best_d =
                    ref (Net.proximity t.net (Node.addr node) (Node.addr !best))
                  in
                  for _ = 2 to Stdlib.min rt_samples size do
                    let c = pick () in
                    let d = Net.proximity t.net (Node.addr node) (Node.addr c) in
                    if d < !best_d then begin
                      best := c;
                      best_d := d
                    end
                  done;
                  !best
                end
              in
              if locality then
                ignore (Routing_table.consider (Node.routing_table node) (Node.self chosen))
              else
                ignore (Routing_table.consider_no_proximity (Node.routing_table node) (Node.self chosen))
            end
          end
        done;
        (* Stop once no other node shares this node's prefix through this
           row's own digit: deeper rows are necessarily empty. *)
        let lo, hi = prefix_bounds ~b id !row own_digit in
        let lo_i, hi_i = range_of t lo hi in
        if hi_i - lo_i <= 1 then continue := false;
        incr row
      done;
      (* Neighborhood: proximity-closest of a random sample. *)
      let sample = Stdlib.min (4 * t.config.Config.neighborhood_size) (total - 1) in
      for _ = 1 to sample do
        let other = s.(Rng.int t.rng total) in
        if Node.addr other <> Node.addr node then
          ignore
            (Neighborhood.add (Node.neighborhood node)
               ~proximity:(Net.proximity t.net (Node.addr node) (Node.addr other))
               (Node.self other))
      done)
    s

let build_static ?locality ?rt_samples t ~n =
  for _ = 1 to n do
    ignore (add_node t)
  done;
  populate_static ?locality ?rt_samples t

(* The joiner contacts a nearby node (§2.2): proximally closest of a
   random sample of the [ncand] candidates. [None] iff there are no
   candidates (first node: an overlay of one). *)
let pick_bootstrap ?(bootstrap_sample = 16) t node candidates ncand =
  if ncand = 0 then None
  else begin
    let best = ref candidates.(Rng.int t.rng ncand) in
    let best_d = ref (Net.proximity t.net (Node.addr node) (Node.addr !best)) in
    for _ = 2 to Stdlib.min bootstrap_sample ncand do
      let c = candidates.(Rng.int t.rng ncand) in
      let d = Net.proximity t.net (Node.addr node) (Node.addr c) in
      if d < !best_d then begin
        best := c;
        best_d := d
      end
    done;
    Some !best
  end

(* Join [node] through a bootstrap drawn from [existing] — nodes that
   are already part of the overlay. [run] (default true) drains the
   network to quiescence afterwards; batched builders defer that to
   amortize the drain over several joins. *)
let join_via ?bootstrap_sample ?(run = true) t node existing =
    let candidates = Array.of_list existing in
    (match pick_bootstrap ?bootstrap_sample t node candidates (Array.length candidates) with
    | None -> ()
    | Some best -> Node.join node ~bootstrap:(Node.addr best));
    if run then Net.run t.net

let build_dynamic ?bootstrap_sample ?(quiesce_every = 1) t ~n =
  let q = Stdlib.max 1 quiesce_every in
  for i = 1 to n do
    let node = add_node t in
    let existing = List.filter (fun m -> Node.addr m <> Node.addr node) t.nodes_rev in
    join_via ?bootstrap_sample ~run:(i mod q = 0 || i = n) t node existing
  done

(* Snapshot bootstrap — the mega-scale builder (DESIGN.md §8). All but
   a small dynamic tail of the nodes get their state directly from the
   static snapshot: exact leaf sets from ring order and routing cells
   filled with proximity-sampled prefix matches — the fixed point the
   §2.2 join protocol converges to. The tail then joins through the
   real message-driven protocol against the snapshot base, so the join
   path stays exercised at every scale and the snapshot's claim to be
   that fixed point is re-validated on every build. *)
let build_snapshot ?locality ?rt_samples ?(dynamic_tail = 0.01) ?bootstrap_sample
    ?(quiesce_every = 1) t ~n =
  if n <= 0 then invalid_arg "Overlay.build_snapshot: n must be positive";
  if dynamic_tail < 0.0 || dynamic_tail > 1.0 then
    invalid_arg "Overlay.build_snapshot: dynamic_tail must be in [0, 1]";
  let tail =
    Stdlib.min n (Stdlib.max 1 (int_of_float (dynamic_tail *. float_of_int n)))
  in
  for _ = 1 to n - tail do
    ignore (add_node t)
  done;
  populate_static ?locality ?rt_samples t;
  (* Tail joins bootstrap from a candidate array grown incrementally:
     the per-join exclude-self list filter [build_dynamic] affords at
     experiment scale would cost O(tail·N) here. *)
  let q = Stdlib.max 1 quiesce_every in
  let cand = ref (Array.of_list (List.rev t.nodes_rev)) in
  let ncand = ref (Array.length !cand) in
  for i = 1 to tail do
    let node = add_node t in
    (match pick_bootstrap ?bootstrap_sample t node !cand !ncand with
    | None -> ()
    | Some best -> Node.join node ~bootstrap:(Node.addr best));
    if i mod q = 0 || i = tail then Net.run t.net;
    if !ncand = Array.length !cand then begin
      let fresh = Array.make (Stdlib.max 16 (2 * !ncand)) node in
      Array.blit !cand 0 fresh 0 !ncand;
      cand := fresh
    end;
    !cand.(!ncand) <- node;
    incr ncand
  done

let join_all_dynamic ?bootstrap_sample t =
  (* Nodes were pre-registered; only the ones already processed are
     part of the overlay and eligible as bootstraps. *)
  ignore
    (List.fold_left
       (fun joined node ->
         join_via ?bootstrap_sample t node joined;
         node :: joined)
       []
       (List.rev t.nodes_rev))

let kill t node = Net.set_alive t.net (Node.addr node) false

let revive t node =
  Net.set_alive t.net (Node.addr node) true;
  Node.recover node

let run ?until t = Net.run ?until t.net
let start_maintenance t = Array.iter Node.start_maintenance (nodes t)
let stop_maintenance t = Array.iter Node.stop_maintenance (nodes t)
