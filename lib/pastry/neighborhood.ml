module Id = Past_id.Id

(* Kept sorted by proximity, closest first, in parallel flat arrays
   (an unboxed float array for the proximities, bare int addresses
   resolved through the shared {!Directory} on the cold paths): the
   membership check and insert-position scan run on every
   [Node.learn], i.e. twice per routed hop, so they must not chase
   pointers through cold memory. *)
type t = {
  config : Config.t;
  own : Id.t;
  dir : Directory.t;
  mutable n : int;
  prox : float array;
  addrs : int array;
}

let create ?dir ~config ~own () =
  Config.validate config;
  let dir = match dir with Some d -> d | None -> Directory.create () in
  let cap = Stdlib.max 1 config.Config.neighborhood_size in
  { config; own; dir; n = 0; prox = Array.make cap 0.0; addrs = Array.make cap (-1) }

(* Top-level scans, not local closures: a local function capturing
   [t] or [proximity] would be heap-allocated on every [add]. *)
let rec mem_from t addr i = i < t.n && (t.addrs.(i) = addr || mem_from t addr (i + 1))

let rec insert_pos t proximity i =
  if i < t.n && t.prox.(i) <= proximity then insert_pos t proximity (i + 1) else i

(* The insertion proper, on the bare address. Equal proximities keep
   arrival order, so the set is a stable selection of the closest
   [neighborhood_size] distinct addresses offered. *)
let offer t ~proximity addr =
  let cap = t.config.Config.neighborhood_size in
  (* A full set refuses anything no closer than its farthest entry —
     a member included, whose proximity is at most that — without the
     membership scan. *)
  if t.n > 0 && t.n >= cap && proximity >= t.prox.(t.n - 1) then false
  else if mem_from t addr 0 then false
  else begin
    (* Insertion point: after every entry with proximity <= ours, so
       equal-proximity incumbents keep precedence. Beyond the cap the
       offer is dropped without touching the arrays. *)
    let pos = insert_pos t proximity 0 in
    if pos >= cap then false
    else begin
      let last = Stdlib.min (t.n + 1) cap - 1 in
      for j = last downto pos + 1 do
        t.prox.(j) <- t.prox.(j - 1);
        t.addrs.(j) <- t.addrs.(j - 1)
      done;
      t.prox.(pos) <- proximity;
      t.addrs.(pos) <- addr;
      t.n <- last + 1;
      true
    end
  end

let add t ~proximity (peer : Peer.t) =
  if Id.equal peer.Peer.id t.own then false
  else begin
    let added = offer t ~proximity peer.Peer.addr in
    if added then Directory.note t.dir peer;
    added
  end

let remove_addr t addr =
  let w = ref 0 in
  for i = 0 to t.n - 1 do
    if t.addrs.(i) <> addr then begin
      if !w < i then begin
        t.prox.(!w) <- t.prox.(i);
        t.addrs.(!w) <- t.addrs.(i)
      end;
      incr w
    end
  done;
  let changed = !w <> t.n in
  t.n <- !w;
  changed

let members t = List.init t.n (fun i -> Directory.get t.dir t.addrs.(i))
let size t = t.n
