module Id = Past_id.Id

(* Each side is kept sorted by ring distance from the own id, closest
   first. Sides are two flat parallel arrays — the entry ids
   (denormalized for scan locality: every routed hop probes the leaf
   sets of nodes scattered across the heap) and the bare int
   addresses, resolved through the shared {!Directory} on the cold
   paths that need the peer record. Distances are not stored: each
   comparison recomputes them exactly from the ids ({!Id.cw_compare}).
   In a sparse ring (< l live nodes) the same peer may legally appear
   on both sides; [members] deduplicates.

   Once maintenance runs, each slot also keeps the time its member was
   last heard from and the deadline of an unanswered probe ([infinity]
   when none is pending), in two float arrays parallel to [addrs] and
   shifted with it. Until then both are the empty array, so static
   overlays pay nothing for them. A peer on both sides has the same
   state in both slots. *)
type side = {
  mutable n : int;
  ids : Id.t array;
  addrs : int array;
  mutable heard : float array;
  mutable due : float array;
}

type t = {
  config : Config.t;
  own : Id.t;
  dir : Directory.t;
  smaller : side; (* by counterclockwise distance *)
  larger : side; (* by clockwise distance *)
  (* [members] runs per maintenance tick per node and per replica
     lookup; the deduplicated list is cached and invalidated whenever a
     side changes. *)
  mutable members_cache : Peer.t list option;
  (* Both sides full and their arcs disjoint: the two extremes' distances
     from own sum to less than 2^128, so no node lies on both sides and
     the known nodes run once round the ring in clockwise order (see
     [replica_set]). False whenever the whole ring fits in the leaf set
     (N <= l + 1) or a side is short after a removal. Refreshed with
     [members_cache] after every mutation. *)
  mutable disjoint : bool;
}

let make_side ~cap ~own =
  { n = 0; ids = Array.make cap own; addrs = Array.make cap (-1); heard = [||]; due = [||] }

let create ?dir ~config ~own () =
  Config.validate config;
  let dir = match dir with Some d -> d | None -> Directory.create () in
  let cap = config.Config.leaf_set_size / 2 in
  {
    config;
    own;
    dir;
    smaller = make_side ~cap ~own;
    larger = make_side ~cap ~own;
    members_cache = None;
    disjoint = false;
  }

let half t = t.config.Config.leaf_set_size / 2

(* The helpers below run on every learned peer. They are top-level
   functions taking their free variables as arguments: a local closure
   over [side], [own] or the candidate would be heap-allocated on every
   call. *)
(* The slot holding [addr], or -1. [n] never exceeds the array's
   length (the side's capacity). *)
let rec slot_from (addrs : int array) n addr i =
  if i >= n then -1
  else if Array.unsafe_get addrs i = addr then i
  else slot_from addrs n addr (i + 1)

let slot_of side addr = slot_from side.addrs side.n addr 0
let side_mem side addr = slot_of side addr >= 0
let tracked side = Array.length side.heard > 0

(* Does [x] sort strictly before [y] on its side? The larger side
   sorts by clockwise distance from own ([cw] true). The smaller side
   sorts by counterclockwise distance, and for x, y <> own
   cw(x, own) = 2^128 − cw(own, x), so the same comparison with its
   arguments swapped orders it. Distinct ids never tie. *)
let before ~own ~cw x y =
  (if cw then Id.cw_compare ~from:own x y else Id.cw_compare ~from:own y x) < 0

(* Leftmost i in [lo, hi) with [id] before entry i; [hi] if none. *)
let rec search side ~own ~cw id lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if before ~own ~cw id side.ids.(mid) then search side ~own ~cw id lo mid
    else search side ~own ~cw id (mid + 1) hi

(* Insert into a distance-sorted side, capped at l/2. The insertion
   point is found by binary search (the side is strictly ordered by
   distance): the leftmost entry strictly farther than the candidate —
   identical to what the historical linear scan chose. A candidate
   beyond a full side's extreme is refused first, by one comparison:
   it can be neither a member nor inserted — the common case, since
   every message teaches its receiver the sender. Membership is tested
   next: a duplicate address implies an equal id, so it always sorts
   before the insertion point and refuses the offer either way.
   Returns the new slot, or -1 when the side is unchanged; the caller
   fills a tracked slot's liveness. *)
let side_add side ~cap ~(peer : Peer.t) ~own ~cw =
  let id = peer.Peer.id in
  if side.n >= cap && before ~own ~cw side.ids.(side.n - 1) id then -1
  else if side_mem side peer.Peer.addr then -1
  else begin
    let pos = search side ~own ~cw id 0 side.n in
    if pos = side.n && side.n >= cap then -1
    else begin
      let last = Stdlib.min (side.n + 1) cap - 1 in
      for j = last downto pos + 1 do
        side.ids.(j) <- side.ids.(j - 1);
        side.addrs.(j) <- side.addrs.(j - 1)
      done;
      if tracked side then
        for j = last downto pos + 1 do
          side.heard.(j) <- side.heard.(j - 1);
          side.due.(j) <- side.due.(j - 1)
        done;
      side.ids.(pos) <- id;
      side.addrs.(pos) <- peer.Peer.addr;
      side.n <- last + 1;
      pos
    end
  end

(* A new tracked slot takes the state its peer already has on the other
   side ([from] is that slot, or -1), or else counts as heard at [now]
   with no probe pending. *)
let init_slot side pos ~other ~from ~now =
  if tracked side then
    if from >= 0 then begin
      side.heard.(pos) <- other.heard.(from);
      side.due.(pos) <- other.due.(from)
    end
    else begin
      side.heard.(pos) <- now;
      side.due.(pos) <- infinity
    end

let refresh t =
  t.members_cache <- None;
  let cap = half t in
  (* With S and L the two extremes' distances from own, S + L < 2^128
     iff the clockwise distance to the smaller side's extreme,
     2^128 - S, is greater than L. *)
  t.disjoint <-
    t.smaller.n = cap
    && t.larger.n = cap
    && Id.cw_compare ~from:t.own t.smaller.ids.(cap - 1) t.larger.ids.(cap - 1) > 0

(* Most offers come from a current member: every keep-alive, ack and
   repair reply teaches its receiver the sender. When the arcs are
   disjoint, finding the address on either side answers the offer
   without any distance arithmetic. Say the member sits on the larger
   side at clockwise distance d: that side holds it already, and its
   counterclockwise distance is 2^128 - d >= 2^128 - (larger extreme)
   > (smaller extreme), so the full smaller side refuses it too — and
   symmetrically for a member of the smaller side. Both sides refuse,
   which is what the per-side tests below would conclude. The test
   comes first: a member's id is not own, and its address is already
   in the directory, so the two checks it skips are no-ops. *)
let add t ~now (peer : Peer.t) =
  if t.disjoint && (side_mem t.larger peer.Peer.addr || side_mem t.smaller peer.Peer.addr) then
    false
  else if Id.equal peer.Peer.id t.own then false
  else begin
    Directory.note t.dir peer;
    let cap = half t in
    let addr = peer.Peer.addr in
    let pos_l = side_add t.larger ~cap ~peer ~own:t.own ~cw:true in
    let pos_s = side_add t.smaller ~cap ~peer ~own:t.own ~cw:false in
    if pos_l >= 0 then
      init_slot t.larger pos_l ~other:t.smaller
        ~from:(if pos_s >= 0 then -1 else slot_of t.smaller addr)
        ~now;
    if pos_s >= 0 then
      init_slot t.smaller pos_s ~other:t.larger
        ~from:(if pos_l >= 0 then -1 else slot_of t.larger addr)
        ~now;
    let any = pos_l >= 0 || pos_s >= 0 in
    if any then refresh t;
    any
  end

(* Snapshot form of [add]. Offered to an empty leaf set, the ring's
   [count] nearest successors and [count] nearest predecessors leave
   exactly those two slices on the larger and smaller sides, closest
   first, whatever the offer order: a side keeps the l/2 nearest in its
   own direction, and the successor slice is the clockwise-nearest of
   all the offers (the predecessor slice the counterclockwise-nearest)
   even when the ring is so small that the slices overlap. So the
   slices are written straight in. *)
let set_ring t ~now ~ids ~addrs ~pos ~count =
  let total = Array.length ids in
  if t.smaller.n > 0 || t.larger.n > 0 then invalid_arg "Leaf_set.set_ring: leaf set is not empty";
  if count < 0 || count > half t || count >= Stdlib.max 1 total then
    invalid_arg (Printf.sprintf "Leaf_set.set_ring: count %d out of range" count);
  for d = 1 to count do
    let succ = (pos + d) mod total and pred = (pos - d + total) mod total in
    t.larger.ids.(d - 1) <- ids.(succ);
    t.larger.addrs.(d - 1) <- addrs.(succ);
    t.smaller.ids.(d - 1) <- ids.(pred);
    t.smaller.addrs.(d - 1) <- addrs.(pred)
  done;
  t.larger.n <- count;
  t.smaller.n <- count;
  for i = 0 to count - 1 do
    init_slot t.larger i ~other:t.smaller ~from:(-1) ~now;
    init_slot t.smaller i ~other:t.larger ~from:(-1) ~now
  done;
  refresh t

let side_remove side addr =
  let w = ref 0 in
  let tracked = tracked side in
  for i = 0 to side.n - 1 do
    if side.addrs.(i) <> addr then begin
      if !w < i then begin
        side.ids.(!w) <- side.ids.(i);
        side.addrs.(!w) <- side.addrs.(i);
        if tracked then begin
          side.heard.(!w) <- side.heard.(i);
          side.due.(!w) <- side.due.(i)
        end
      end;
      incr w
    end
  done;
  let changed = !w <> side.n in
  side.n <- !w;
  changed

let remove_addr t addr =
  let changed_s = side_remove t.smaller addr in
  let changed_l = side_remove t.larger addr in
  let any = changed_s || changed_l in
  if any then refresh t;
  any

let mem_addr t addr = side_mem t.smaller addr || side_mem t.larger addr

(* --- liveness -----------------------------------------------------------

   Keep-alive state per slot (MSPastry's suppression, Castro, Costa and
   Rowstron, DSN 2004): any message from a member proves it alive, so a
   tick probes only the members not heard from within one keep-alive
   period P, and a probe's deadline counts from the last message rather
   than from the probe. With ticks P apart, a member last heard at h is
   first probed at the first tick after h + P, which is at most h + 2P;
   its deadline is h + P + T (T the failure timeout), and it is declared
   failed at the first tick after that: in (h + P + T, h + 2P + T]
   whenever T >= P. *)

let stamp_side side ~cap ~now ~due =
  side.heard <- Array.make cap now;
  side.due <- Array.make cap due

let track_liveness t ~now ~due =
  stamp_side t.smaller ~cap:(half t) ~now ~due;
  stamp_side t.larger ~cap:(half t) ~now ~due

let heard_side side addr ~now =
  let i = slot_of side addr in
  if i >= 0 then begin
    side.heard.(i) <- now;
    side.due.(i) <- infinity
  end

let heard t addr ~now =
  if tracked t.smaller then begin
    heard_side t.smaller addr ~now;
    heard_side t.larger addr ~now
  end

let last_heard t addr =
  if not (tracked t.smaller) then None
  else
    let i = slot_of t.smaller addr in
    if i >= 0 then Some t.smaller.heard.(i)
    else
      let j = slot_of t.larger addr in
      if j >= 0 then Some t.larger.heard.(j) else None

(* A larger-side slot whose peer is also on the smaller side is that
   peer's second slot: the scans below visit each member once. *)
let primary t side i = side == t.smaller || not (side_mem t.smaller side.addrs.(i))

let rec expired_in t side ~now i acc =
  if i < 0 then acc
  else
    expired_in t side ~now (i - 1)
      (if side.due.(i) < now && primary t side i then side.addrs.(i) :: acc else acc)

let expired t ~now =
  if not (tracked t.smaller) then []
  else
    expired_in t t.smaller ~now (t.smaller.n - 1) (expired_in t t.larger ~now (t.larger.n - 1) [])

let probe_side t side ~now ~period ~timeout f =
  for i = 0 to side.n - 1 do
    let addr = side.addrs.(i) in
    if now -. side.heard.(i) > period && primary t side i then begin
      if side.due.(i) = infinity then begin
        let due = side.heard.(i) +. period +. timeout in
        side.due.(i) <- due;
        if side == t.smaller then begin
          let j = slot_of t.larger addr in
          if j >= 0 then t.larger.due.(j) <- due
        end
      end;
      f addr
    end
  done

let probe_silent t ~now ~period ~timeout f =
  if tracked t.smaller then begin
    probe_side t t.smaller ~now ~period ~timeout f;
    probe_side t t.larger ~now ~period ~timeout f
  end

(* A dead member keeps its slot for up to T + 2P after its last
   message. A leaf-set reply that passed it on would plant it in leaf
   sets that never declared it failed, each import restarting its
   detection clock; so a reply leaves out the members awaiting an
   answer to a probe. *)
let rec vouched_from t side i acc =
  if i < 0 then acc
  else
    vouched_from t side (i - 1)
      (if tracked side && side.due.(i) < infinity then acc
       else Directory.get t.dir side.addrs.(i) :: acc)

let vouched t =
  (vouched_from t t.smaller (t.smaller.n - 1) [], vouched_from t t.larger (t.larger.n - 1) [])

let members t =
  match t.members_cache with
  | Some m -> m
  | None ->
    (* Keep the historical construction (and hence element order, which
       downstream iteration — keepalives, replica scans — depends on
       for determinism): dedup through a fresh Hashtbl, fold it out. *)
    let tbl = Hashtbl.create 64 in
    let collect side =
      for i = 0 to side.n - 1 do
        if not (Hashtbl.mem tbl side.addrs.(i)) then
          Hashtbl.replace tbl side.addrs.(i) (Directory.get t.dir side.addrs.(i))
      done
    in
    collect t.smaller;
    collect t.larger;
    let m = Hashtbl.fold (fun _ p acc -> p :: acc) tbl [] in
    t.members_cache <- Some m;
    m

let side_list t side = List.init side.n (fun i -> Directory.get t.dir side.addrs.(i))
let smaller t = side_list t t.smaller
let larger t = side_list t t.larger
let size t = List.length (members t)
let is_empty t = t.smaller.n = 0 && t.larger.n = 0

let extreme t side = if side.n = 0 then None else Some (Directory.get t.dir side.addrs.(side.n - 1))
let extreme_smaller t = extreme t t.smaller
let extreme_larger t = extreme t t.larger

(* A side with spare capacity means we know every node on that side,
   so the leaf set spans the whole ring; so it does when the two arcs
   overlap. Otherwise the arc runs clockwise from the smaller extreme
   lo through own to the larger extreme hi, and its length S + L is
   below 2^128, so it equals cw(lo, hi). *)
let covers t key =
  (not t.disjoint)
  ||
  let last = half t - 1 in
  Id.cw_compare ~from:t.smaller.ids.(last) key t.larger.ids.(last) <= 0

(* Member slot [j] of the closest scan: the smaller side at 0..n-1,
   the larger side after it. *)
let scan_id t j =
  let n = t.smaller.n in
  if j < n then t.smaller.ids.(j) else t.larger.ids.(j - n)

(* The slot of the closest among the incumbent [best] (-1 for own id)
   and the members from slot [j] on. Ties keep the incumbent, so own id
   wins a tie and a peer on both sides of a sparse ring is found on the
   smaller side. *)
let rec closest_slot t key j best best_id =
  if j >= t.smaller.n + t.larger.n then best
  else
    let id = scan_id t j in
    if Id.closer ~target:key id best_id < 0 then closest_slot t key (j + 1) j id
    else closest_slot t key (j + 1) best best_id

let closest_including_self t key =
  let j = closest_slot t key 0 (-1) t.own in
  let n = t.smaller.n in
  if j < 0 then None
  else Some (Directory.get t.dir (if j < n then t.smaller.addrs.(j) else t.larger.addrs.(j - n)))

(* The k closest candidates so far, closest first, in parallel arrays:
   id and result element. *)
type best = { b_ids : Id.t array; b_elts : [ `Self | `Peer of Peer.t ] array; mutable b_n : int }

(* Make room for the candidate at its place among the first [b_n]
   slots, dropping the farthest once all k are taken, and return its
   slot; -1 when a full set refuses it. The caller stores the element,
   so a refused candidate allocates nothing. *)
let best_slot b ~k key id =
  if b.b_n < k || Id.closer ~target:key id b.b_ids.(b.b_n - 1) < 0 then begin
    let last = Stdlib.min b.b_n (k - 1) in
    let pos = ref last in
    while !pos > 0 && Id.closer ~target:key id b.b_ids.(!pos - 1) < 0 do
      decr pos
    done;
    for j = last downto !pos + 1 do
      b.b_ids.(j) <- b.b_ids.(j - 1);
      b.b_elts.(j) <- b.b_elts.(j - 1)
    done;
    b.b_ids.(!pos) <- id;
    b.b_n <- last + 1;
    !pos
  end
  else -1

let rec best_offer_peers b ~k key = function
  | [] -> ()
  | (p : Peer.t) :: rest ->
    let i = best_slot b ~k key p.Peer.id in
    if i >= 0 then b.b_elts.(i) <- `Peer p;
    best_offer_peers b ~k key rest

(* --- replica sets from the clockwise window ---------------------------

   With disjoint arcs the known nodes, read clockwise from own, are:
   slot 0 own, slots 1..n the larger side closest first, slots
   n+1..2n the smaller side farthest first (n = l/2). The key falls
   between two cyclically adjacent slots. Ring distance to the key has
   a single peak along any arc that does not hold the key (it rises to
   the antipode and falls after it), so the nearest node not yet taken
   is always one of the two ends of the untaken arc: walking outward
   from the key with two pointers and taking the closer head each time
   yields the nodes in exactly the (distance, id) order of a full
   sort. Two nodes tie in distance only as key - d and key + d, and
   then both are heads. *)

let slot_id t j =
  let n = t.larger.n in
  if j = 0 then t.own else if j <= n then t.larger.ids.(j - 1) else t.smaller.ids.((2 * n) - j)

let slot_elt t j =
  let n = t.larger.n in
  if j = 0 then `Self
  else if j <= n then `Peer (Directory.get t.dir t.larger.addrs.(j - 1))
  else `Peer (Directory.get t.dir t.smaller.addrs.((2 * n) - j))

(* The last slot in [lo, hi) at or before the key, clockwise from own;
   slot [lo] is. *)
let rec locate t key lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) / 2 in
    if Id.cw_compare ~from:t.own (slot_id t mid) key <= 0 then locate t key mid hi
    else locate t key lo mid

let rec walk t key m left right remaining =
  if remaining = 0 then []
  else if Id.closer ~target:key (slot_id t left) (slot_id t right) <= 0 then
    let e = slot_elt t left in
    e :: walk t key m ((left + m - 1) mod m) right (remaining - 1)
  else
    let e = slot_elt t right in
    e :: walk t key m left ((right + 1) mod m) (remaining - 1)

let replica_set t ~k key =
  if k <= 0 then invalid_arg (Printf.sprintf "Leaf_set.replica_set: k must be positive (got %d)" k);
  if t.disjoint then begin
    let m = 1 + t.larger.n + t.smaller.n in
    let j = locate t key 0 m in
    walk t key m j ((j + 1) mod m) (Stdlib.min k m)
  end
  else begin
    (* Overlapping arcs: bounded insertion of own id and the members
       into k slots. The order is total (distinct ids, and [members]
       excludes own), so this is exactly the first k of the sorted
       candidates. *)
    let b = { b_ids = Array.make k t.own; b_elts = Array.make k `Self; b_n = 0 } in
    ignore (best_slot b ~k key t.own : int);
    best_offer_peers b ~k key (members t);
    List.init b.b_n (fun i -> b.b_elts.(i))
  end
