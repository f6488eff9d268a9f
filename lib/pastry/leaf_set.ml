module Id = Past_id.Id

(* Each side is kept sorted by ring distance from the own id, closest
   first. Sides are two flat parallel arrays — the entry ids
   (denormalized for scan locality: every routed hop probes the leaf
   sets of nodes scattered across the heap) and the bare int
   addresses, resolved through the shared {!Directory} on the cold
   paths that need the peer record. Distance keys are not stored:
   an entry's key is a pure function of the own id and the entry id,
   recomputed on demand; only the farthest (last) entry's key per side
   is cached, in full (the coverage bound read on every routed hop) and
   as its packed prefix (the bound every learned peer is tested
   against).
   In a sparse ring (< l live nodes) the same peer may legally appear
   on both sides; [members] deduplicates. *)
type side = {
  mutable n : int;
  ids : Id.t array;
  addrs : int array;
  (* Full [Id.cw_dist_key] of entry [n-1] and its packed prefix
     ([entry_hi]); [""] and [max_int] when the side is empty. Refreshed
     after every mutation. *)
  mutable ext_key : string;
  mutable ext_hi : int;
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
  (* Both sides full and their arcs disjoint: the two extreme keys sum
     to less than 2^128, so no node lies on both sides and the known
     nodes run once round the ring in clockwise order (see
     [replica_set]). False whenever the whole ring fits in the leaf set
     (N <= l + 1) or a side is short after a removal. Refreshed with
     [members_cache] after every mutation. *)
  mutable disjoint : bool;
}

let make_side ~cap ~own =
  { n = 0; ids = Array.make cap own; addrs = Array.make cap (-1); ext_key = ""; ext_hi = max_int }

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

(* Distance of [id] in the side's orientation: the larger side sorts
   by clockwise distance from own ([cw] true), the smaller side by
   counterclockwise, i.e. clockwise from the entry to own. *)
let entry_hi ~own ~cw id = if cw then Id.cw_dist_hi7 own id else Id.cw_dist_hi7 id own
let entry_key ~own ~cw id = if cw then Id.cw_dist_key own id else Id.cw_dist_key id own

let set_ext side ~own ~cw =
  if side.n = 0 then begin
    side.ext_key <- "";
    side.ext_hi <- max_int
  end
  else begin
    side.ext_key <- entry_key ~own ~cw side.ids.(side.n - 1);
    side.ext_hi <- entry_hi ~own ~cw side.ids.(side.n - 1)
  end

(* The helpers below run on every learned peer. They are top-level
   functions taking their free variables as arguments: a local closure
   over [side], [own] or the candidate would be heap-allocated on every
   call. *)
(* [n] never exceeds the array's length (the side's capacity). *)
let rec side_mem_from (addrs : int array) n addr i =
  i < n && (Array.unsafe_get addrs i = addr || side_mem_from addrs n addr (i + 1))

let side_mem side addr = side_mem_from side.addrs side.n addr 0

(* Does the candidate [id] (packed prefix [cand_hi]) sort strictly
   before entry [i]? The packed 7-byte distance prefix decides almost
   every comparison; the full key strings are built only on a prefix
   tie. *)
let before side ~own ~cw id (cand_hi : int) i =
  let c = compare cand_hi (entry_hi ~own ~cw side.ids.(i)) in
  if c <> 0 then c < 0
  else begin
    let c = String.compare (entry_key ~own ~cw id) (entry_key ~own ~cw side.ids.(i)) in
    c < 0 || (c = 0 && Id.compare id side.ids.(i) < 0)
  end

(* Leftmost i in [lo, hi) with [before i]; [hi] if none. *)
let rec search side ~own ~cw id cand_hi lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if before side ~own ~cw id cand_hi mid then search side ~own ~cw id cand_hi lo mid
    else search side ~own ~cw id cand_hi (mid + 1) hi

(* Insert into a distance-sorted side, capped at l/2. The insertion
   point is found by binary search (the side is strictly ordered by
   (distance, id)): the leftmost entry strictly farther than the
   candidate — identical to what the historical linear scan chose.
   Membership is tested first: a duplicate address implies an equal
   distance and id, so it always sorts before the insertion point and
   refuses the offer either way, but searching for it would tie with
   its own entry and build the full keys. Before either, a candidate
   strictly beyond a full side's extreme is refused outright: it can be
   neither a member (a member's prefix is at most the extreme's) nor
   inserted — the common case, since every message teaches its
   receiver the sender. *)
let side_add side ~cap ~(peer : Peer.t) ~own ~cw =
  let cand_hi = entry_hi ~own ~cw peer.Peer.id in
  if side.n >= cap && cand_hi > side.ext_hi then false
  else if side_mem side peer.Peer.addr then false
  else begin
    let pos = search side ~own ~cw peer.Peer.id cand_hi 0 side.n in
    if pos = side.n && side.n >= cap then false
    else begin
      let last = Stdlib.min (side.n + 1) cap - 1 in
      for j = last downto pos + 1 do
        side.ids.(j) <- side.ids.(j - 1);
        side.addrs.(j) <- side.addrs.(j - 1)
      done;
      side.ids.(pos) <- peer.Peer.id;
      side.addrs.(pos) <- peer.Peer.addr;
      side.n <- last + 1;
      set_ext side ~own ~cw;
      true
    end
  end

let refresh t =
  t.members_cache <- None;
  let cap = half t in
  (* With S and L the two extreme keys, S + L < 2^128 iff the
     clockwise distance to the smaller side's extreme, 2^128 - S, is
     greater than L. *)
  t.disjoint <-
    t.smaller.n = cap
    && t.larger.n = cap
    && String.compare (Id.cw_dist_key t.own t.smaller.ids.(cap - 1)) t.larger.ext_key > 0

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
let add t (peer : Peer.t) =
  if t.disjoint && (side_mem t.larger peer.Peer.addr || side_mem t.smaller peer.Peer.addr) then
    false
  else if Id.equal peer.Peer.id t.own then false
  else begin
    Directory.note t.dir peer;
    let cap = half t in
    let changed_l = side_add t.larger ~cap ~peer ~own:t.own ~cw:true in
    let changed_s = side_add t.smaller ~cap ~peer ~own:t.own ~cw:false in
    let any = changed_l || changed_s in
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
let set_ring t ~ids ~addrs ~pos ~count =
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
  set_ext t.larger ~own:t.own ~cw:true;
  set_ext t.smaller ~own:t.own ~cw:false;
  refresh t

let side_remove side ~own ~cw addr =
  let w = ref 0 in
  for i = 0 to side.n - 1 do
    if side.addrs.(i) <> addr then begin
      if !w < i then begin
        side.ids.(!w) <- side.ids.(i);
        side.addrs.(!w) <- side.addrs.(i)
      end;
      incr w
    end
  done;
  let changed = !w <> side.n in
  side.n <- !w;
  if changed then set_ext side ~own ~cw;
  changed

let remove_addr t addr =
  let changed_s = side_remove t.smaller ~own:t.own ~cw:false addr in
  let changed_l = side_remove t.larger ~own:t.own ~cw:true addr in
  let any = changed_s || changed_l in
  if any then refresh t;
  any

let mem_addr t addr = side_mem t.smaller addr || side_mem t.larger addr

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

let covers t key =
  (* A side with spare capacity means we know every node on that side,
     so the leaf set effectively spans the whole ring. *)
  let cap = half t in
  if t.smaller.n < cap || t.larger.n < cap then true
  else begin
    let s = t.smaller and l = t.larger in
    (* Arc from lo clockwise to hi passes through own: the key is in
       range iff its clockwise offset from lo does not exceed the
       arc length, which is lo's ccw distance + hi's cw distance. *)
    Id.dist_key_le_sum (Id.cw_dist_key s.ids.(s.n - 1) key) s.ext_key l.ext_key
  end

let closest_to t key =
  (* Track the minimum by packed ring-distance prefix; only a prefix
     tie falls back to the full [Id.closer] comparison. A strictly
     smaller prefix implies a strictly smaller full key, and ties keep
     the incumbent, so the winner matches the plain closer-scan
     exactly. *)
  let best_addr = ref (-1) in
  let best_id = ref t.own in
  let best_hi = ref max_int in
  let scan side =
    for i = 0 to side.n - 1 do
      let h = Id.ring_dist_hi7 key side.ids.(i) in
      if h < !best_hi then begin
        best_addr := side.addrs.(i);
        best_id := side.ids.(i);
        best_hi := h
      end
      else if h = !best_hi && !best_addr >= 0 && Id.closer ~target:key side.ids.(i) !best_id < 0
      then begin
        best_addr := side.addrs.(i);
        best_id := side.ids.(i)
      end
    done
  in
  scan t.smaller;
  scan t.larger;
  if !best_addr < 0 then None else Some (Directory.get t.dir !best_addr)

let closest_including_self t key =
  match closest_to t key with
  | None -> `Self
  | Some p -> if Id.closer ~target:key t.own p.Peer.id <= 0 then `Self else `Peer p

(* The k closest candidates so far, closest first, in parallel arrays:
   packed ring-distance prefix, id, and result element. *)
type best = {
  b_hi : int array;
  b_ids : Id.t array;
  b_elts : [ `Self | `Peer of Peer.t ] array;
  mutable b_n : int;
}

(* Does candidate [id] (prefix [h]) sort strictly before slot [i]? The
   prefix decides almost every comparison; a prefix tie compares the
   full keys (random ids essentially never tie), and an exact distance
   tie breaks on the id, matching [Id.closer]'s ordering. *)
let best_before b key h id i =
  let c = compare (h : int) b.b_hi.(i) in
  if c <> 0 then c < 0
  else
    let c = String.compare (Id.ring_dist_key key id) (Id.ring_dist_key key b.b_ids.(i)) in
    c < 0 || (c = 0 && Id.compare id b.b_ids.(i) < 0)

(* Make room for the candidate at its place among the first [b_n]
   slots, dropping the farthest once all k are taken, and return its
   slot; -1 when a full set refuses it. The caller stores the element,
   so a refused candidate allocates nothing. *)
let best_slot b ~k key id =
  let h = Id.ring_dist_hi7 key id in
  if b.b_n < k || best_before b key h id (b.b_n - 1) then begin
    let last = Stdlib.min b.b_n (k - 1) in
    let pos = ref last in
    while !pos > 0 && best_before b key h id (!pos - 1) do
      decr pos
    done;
    for j = last downto !pos + 1 do
      b.b_hi.(j) <- b.b_hi.(j - 1);
      b.b_ids.(j) <- b.b_ids.(j - 1);
      b.b_elts.(j) <- b.b_elts.(j - 1)
    done;
    b.b_hi.(!pos) <- h;
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

(* Is slot [j] at or before the key, clockwise from own? The packed
   prefix decides unless it ties. *)
let slot_le t j key key_hi =
  let id = slot_id t j in
  let h = Id.cw_dist_hi7 t.own id in
  h < key_hi
  || (h = key_hi && String.compare (Id.cw_dist_key t.own id) (Id.cw_dist_key t.own key) <= 0)

(* The last slot in [lo, hi) at or before the key; slot [lo] is. *)
let rec locate t key key_hi lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) / 2 in
    if slot_le t mid key key_hi then locate t key key_hi mid hi else locate t key key_hi lo mid

let head_hi t key j = Id.ring_dist_hi7 key (slot_id t j)

(* The two heads' packed ring-distance prefixes ride along, so a step
   computes one new prefix; only a prefix tie asks [Id.closer]. *)
let rec walk t key m left lhi right rhi remaining =
  if remaining = 0 then []
  else if
    lhi < rhi || (lhi = rhi && Id.closer ~target:key (slot_id t left) (slot_id t right) <= 0)
  then
    let e = slot_elt t left and left = (left + m - 1) mod m in
    e :: walk t key m left (head_hi t key left) right rhi (remaining - 1)
  else
    let e = slot_elt t right and right = (right + 1) mod m in
    e :: walk t key m left lhi right (head_hi t key right) (remaining - 1)

let replica_set t ~k key =
  if k <= 0 then invalid_arg (Printf.sprintf "Leaf_set.replica_set: k must be positive (got %d)" k);
  if t.disjoint then begin
    let m = 1 + t.larger.n + t.smaller.n in
    let j = locate t key (Id.cw_dist_hi7 t.own key) 0 m in
    let right = (j + 1) mod m in
    walk t key m j (head_hi t key j) right (head_hi t key right) (Stdlib.min k m)
  end
  else begin
    (* Overlapping arcs: bounded insertion of own id and the members
       into k slots. The order is total (distinct ids, and [members]
       excludes own), so this is exactly the first k of the sorted
       candidates. *)
    let b =
      {
        b_hi = Array.make k max_int;
        b_ids = Array.make k t.own;
        b_elts = Array.make k `Self;
        b_n = 0;
      }
    in
    ignore (best_slot b ~k key t.own : int);
    best_offer_peers b ~k key (members t);
    List.init b.b_n (fun i -> b.b_elts.(i))
  end
