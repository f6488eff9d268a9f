module Id = Past_id.Id
module Net = Past_simnet.Net
module Rng = Past_stdext.Rng
module Topology = Past_simnet.Topology

type 'a t = {
  net : 'a Message.t Net.t;
  config : Config.t;
  rng : Rng.t;
  (* Every node in insertion order ([all.(0 .. count-1)]; the array
     grows by doubling). The overlay owns its network, so a node's
     address is its insertion index and [all] is also the address
     table. The first [built] nodes are part of the overlay —
     snapshot-populated or joined — and are the bootstrap candidates of
     the next join; the rest are registered but not yet built. *)
  mutable all : 'a Node.t array;
  mutable count : int;
  mutable built : int;
  (* Exact-length copies, rebuilt when a node was added since (nodes
     are never removed, so a stale copy is one shorter than [count]). *)
  mutable nodes_cache : 'a Node.t array;
  mutable sorted : 'a Node.t array; (* by id *)
  (* The overlay-wide peer directory / telemetry bundle shared by every
     node's compact state. [shared] is created at the first node so
     registry rows appear exactly when they always did. *)
  dir : Directory.t;
  mutable shared : Node.shared option;
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
  if Array.length t.nodes_cache <> t.count then t.nodes_cache <- Array.sub t.all 0 t.count;
  t.nodes_cache

let node_count t = t.count

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
  assert (Node.addr node = t.count);
  if t.count = Array.length t.all then begin
    let fresh = Array.make (Stdlib.max 16 (2 * t.count)) node in
    Array.blit t.all 0 fresh 0 t.count;
    t.all <- fresh
  end;
  t.all.(t.count) <- node;
  t.count <- t.count + 1;
  node

let add_node t = add_node_with_id t ~id:(Id.random t.rng ~width:Id.node_bits)

let sorted_nodes t =
  if Array.length t.sorted <> t.count then begin
    let s = Array.copy (nodes t) in
    Array.sort (fun a b -> Id.compare (Node.id a) (Node.id b)) s;
    t.sorted <- s
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
    t.live <- Array.of_list (List.filter (alive t) (Array.to_list (nodes t)));
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
   recovery is a fresh episode with a fresh clock. *)
let install_monitors t =
  let module Monitor = Past_telemetry.Monitor in
  let monitors = Past_telemetry.Registry.monitors (Net.registry t.net) in
  if Monitor.active monitors then begin
    let cursor = ref 0 in
    let tick_no = ref 0 in
    let pair_bound =
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
            let holder = t.all.(holder_addr) and member = t.all.(member_addr) in
            Net.alive t.net holder_addr
            && Net.alive t.net member_addr
            && Node.joined holder && Node.joined member
            && Leaf_set.mem_addr (Node.leaf_set holder) member_addr
            && (not (Leaf_set.mem_addr (Node.leaf_set member) holder_addr))
            && Leaf_set.covers (Node.leaf_set member) (Node.id holder)
          in
          let fault = ref None in
          let resolved =
            Hashtbl.fold
              (fun ((a, b) as pair) since acc ->
                if asymmetric a b then begin
                  if now -. since > pair_bound && !fault = None then
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
             needs to notice a pair well within its bound, so it
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
      all = [||];
      count = 0;
      built = 0;
      nodes_cache = [||];
      dir = Directory.create ();
      shared = None;
      sorted = [||];
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
(* Index of the first node in id order whose id is not below [key]. *)
let search t key =
  let s = sorted_nodes t in
  let a = ref 0 and b = ref (Array.length s) in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    let c = Id.compare (Node.id s.(mid)) key in
    if c < 0 then a := mid + 1 else b := mid
  done;
  !a

let nearest_live t key ~k =
  let s = sorted_nodes t in
  let n = Array.length s in
  if n = 0 then invalid_arg "Overlay.nearest_live: empty overlay";
  let lo = search t key in
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
  collect lo 1;
  collect (lo - 1) (-1);
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

(* The snapshot fixed point, written in bulk (DESIGN.md §8a). Nodes
   are visited in id order and the rng draws come in a fixed order —
   per node, each row's cells by column, then the neighbourhood sample
   — that every seed's overlay depends on; the state is what offering
   the peers one at a time would leave. Per node:
   - the leaf set is the two ring slices around it ({!Leaf_set.set_ring});
     the slice peers are then offered to the routing table and the
     neighbourhood in the historical order, successor d before
     predecessor d;
   - routing cell (r, c) draws from the ids that share the node's first
     r digits and have digit c at r: a contiguous run of the sorted
     ids. One walk down the node's own prefix classes finds the runs;
     the column bounds of a class are computed once and reused by every
     node in it (the nodes of a class are consecutive);
   - the neighbourhood keeps the closest of the leaf offers and the
     sampled draws ({!Neighborhood.offer}), by address alone.
   Candidates are read from flat arrays — the sorted ids and addresses
   here, the coordinates inside {!Net.proximity} — and offered to the
   tables as bare bindings: no node or peer record is read, except the
   single pick per cell when locality is off. *)

(* Column bounds of the row-[r] prefix class [lo, hi): [bounds.(o + c)]
   is the first index of the class whose digit [r] is at least [c], and
   [bounds.(o + cols)] is [hi]. *)
let fill_bounds ~b ~cols ids bounds o r lo hi =
  let j = ref lo in
  for c = 0 to cols - 1 do
    while !j < hi && Id.digit ~b ids.(!j) r < c do
      incr j
    done;
    bounds.(o + c) <- !j
  done;
  bounds.(o + cols) <- hi

let populate ~locality ~rt_samples t =
  let s = sorted_nodes t in
  let total = Array.length s in
  let ids = Array.map Node.id s and addrs = Array.map Node.addr s in
  for i = 1 to total - 1 do
    if Id.equal ids.(i - 1) ids.(i) then
      invalid_arg
        (Printf.sprintf "Overlay.build_static: duplicate nodeId %s" (Id.to_hex ids.(i)))
  done;
  let net = t.net and rng = t.rng in
  let b = t.config.Config.b in
  let rows = Config.rows t.config and cols = Config.cols t.config in
  let half = t.config.Config.leaf_set_size / 2 in
  let sample = 4 * t.config.Config.neighborhood_size in
  (* Row r's cached class starts at [class_lo.(r)] (-1: none yet); its
     bounds are [bounds.(r * (cols + 1) ..)]. Classes of one row are
     disjoint, so the start identifies the class. *)
  let class_lo = Array.make rows (-1) in
  let bounds = Array.make (rows * (cols + 1)) 0 in
  for i = 0 to total - 1 do
    let node = s.(i) and own = addrs.(i) in
    let rt = Node.routing_table node and nbhd = Node.neighborhood node in
    let count = Stdlib.min half (total - 1) in
    Node.set_leaf_ring node ~ids ~addrs ~pos:i ~count;
    let offer j =
      let prox = Net.proximity net own addrs.(j) in
      ignore (Routing_table.offer rt ~prox ~id:ids.(j) addrs.(j));
      ignore (Neighborhood.offer nbhd ~proximity:prox addrs.(j))
    in
    for d = 1 to count do
      offer ((i + d) mod total);
      offer ((i - d + total) mod total)
    done;
    (* Routing table: per cell, the proximity-closest of up to
       [rt_samples] draws from the cell's run (one uniform draw when
       locality is off). *)
    let lo = ref 0 and hi = ref total and row = ref 0 in
    while !row < rows && !hi - !lo > 1 do
      let r = !row in
      let o = r * (cols + 1) in
      if class_lo.(r) <> !lo then begin
        fill_bounds ~b ~cols ids bounds o r !lo !hi;
        class_lo.(r) <- !lo
      end;
      let own_digit = Id.digit ~b ids.(i) r in
      for col = 0 to cols - 1 do
        let first = bounds.(o + col) in
        let size = bounds.(o + col + 1) - first in
        if col <> own_digit && size > 0 then begin
          if not locality then
            ignore
              (Routing_table.consider_no_proximity rt (Node.self s.(first + Rng.int rng size)))
          else begin
            let best = ref (first + Rng.int rng size) in
            let best_d = ref (Net.proximity net own addrs.(!best)) in
            for _ = 2 to Stdlib.min rt_samples size do
              let c = first + Rng.int rng size in
              let d = Net.proximity net own addrs.(c) in
              if d < !best_d then begin
                best := c;
                best_d := d
              end
            done;
            ignore (Routing_table.offer rt ~prox:!best_d ~id:ids.(!best) addrs.(!best))
          end
        end
      done;
      (* Descend into the node's own class; once nobody else shares
         the prefix through this row's digit, deeper rows are empty. *)
      lo := bounds.(o + own_digit);
      hi := bounds.(o + own_digit + 1);
      incr row
    done;
    (* Neighborhood: proximity-closest of a random sample. *)
    for _ = 1 to Stdlib.min sample (total - 1) do
      let other = addrs.(Rng.int rng total) in
      if other <> own then
        ignore (Neighborhood.offer nbhd ~proximity:(Net.proximity net own other) other)
    done
  done

(* The joiner contacts a nearby node (§2.2): the proximally closest of
   a sample of 16 random draws among the built nodes, then the network
   drains to quiescence every [quiesce_every] joins and after the last.
   Candidate r of a draw is the r-th newest built node on the dynamic
   path and the r-th oldest on the snapshot tail — the two historical
   orders, which the EXP14 and EXP15 goldens pin. Joining the very first
   node only marks it built: it is an overlay of one. *)
let join_pending ~newest ?(quiesce_every = 1) t ~joins =
  let q = Stdlib.max 1 quiesce_every in
  let pending = t.count - t.built in
  let total = pending + joins in
  for i = 1 to total do
    if i > pending then ignore (add_node t);
    let node = t.all.(t.built) in
    let ncand = t.built in
    if ncand > 0 then begin
      let cand r = t.all.(if newest then ncand - 1 - r else r) in
      let best = ref (cand (Rng.int t.rng ncand)) in
      let best_d = ref (Net.proximity t.net (Node.addr node) (Node.addr !best)) in
      for _ = 2 to Stdlib.min 16 ncand do
        let c = cand (Rng.int t.rng ncand) in
        let d = Net.proximity t.net (Node.addr node) (Node.addr c) in
        if d < !best_d then begin
          best := c;
          best_d := d
        end
      done;
      Node.join node ~bootstrap:(Node.addr !best)
    end;
    t.built <- t.built + 1;
    if i mod q = 0 || i = total then Net.run t.net
  done

(* Snapshot bootstrap (DESIGN.md §8): every node gets its state
   directly from the sorted id space — exact leaf sets from ring order
   and routing cells filled with proximity-sampled prefix matches, the
   fixed point the §2.2 join protocol converges to. A [dynamic_tail]
   then joins through the real message-driven protocol against that
   base, so the join path stays exercised at every scale and the
   snapshot's claim to be the fixed point is re-validated. *)
let build_static ?(locality = true) ?(rt_samples = 8) ?(dynamic_tail = 0.0) t ~n =
  if n < 0 then invalid_arg (Printf.sprintf "Overlay.build_static: n = %d is negative" n);
  if t.built > 0 then
    invalid_arg
      (Printf.sprintf "Overlay.build_static: the overlay already has %d built nodes" t.built);
  if not (dynamic_tail >= 0.0 && dynamic_tail <= 1.0) then
    invalid_arg
      (Printf.sprintf "Overlay.build_static: dynamic_tail %g is outside [0, 1]" dynamic_tail);
  let tail =
    if dynamic_tail = 0.0 then 0
    else Stdlib.min n (Stdlib.max 1 (int_of_float (dynamic_tail *. float_of_int n)))
  in
  for _ = 1 to n - tail do
    ignore (add_node t)
  done;
  populate ~locality ~rt_samples t;
  t.built <- t.count;
  join_pending ~newest:false t ~joins:tail

let build_dynamic ?quiesce_every t ~n =
  if n < 0 then invalid_arg (Printf.sprintf "Overlay.build_dynamic: n = %d is negative" n);
  join_pending ~newest:true ?quiesce_every t ~joins:n

let kill t node = Net.set_alive t.net (Node.addr node) false

let revive t node =
  Net.set_alive t.net (Node.addr node) true;
  Node.recover node

let run ?until t = Net.run ?until t.net
let start_maintenance t = Array.iter Node.start_maintenance (nodes t)
let stop_maintenance t = Array.iter Node.stop_maintenance (nodes t)
