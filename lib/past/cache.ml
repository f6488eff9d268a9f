module Id = Past_id.Id

type policy = No_cache | Lru | Gds

let policy_name = function No_cache -> "none" | Lru -> "LRU" | Gds -> "GD-S"

type entry = {
  cert : Certificate.file;
  data : string;
  mutable slot : int; (* index in the heap; -1 once evicted or removed *)
}

(* Entries sit both in the id table and in a binary min-heap ordered
   by (weight, stamp), each entry knowing its heap slot, so finding,
   re-weighting and deleting a victim are all O(log n). The heap is
   three parallel arrays, so weights stay unboxed and re-weighting an
   entry allocates nothing. *)
type t = {
  policy : policy;
  mutable budget : int;
  mutable used : int;
  entries : entry Id.Table.t;
  mutable heap : entry array; (* [0, len) is live *)
  mutable weights : float array; (* GDS: H value; LRU: last-use tick *)
  mutable stamps : int array; (* clock value when the weight was last set *)
  mutable len : int;
  mutable inflation : float; (* GDS L *)
  mutable clock : int; (* stamps every weight set; doubles as LRU's tick *)
}

let create policy =
  {
    policy;
    budget = 0;
    used = 0;
    entries = Id.Table.create 64;
    heap = [||];
    weights = [||];
    stamps = [||];
    len = 0;
    inflation = 0.0;
    clock = 0;
  }

let used t = t.used
let entry_count t = Id.Table.length t.entries

(* --- heap ------------------------------------------------------------- *)

(* Slots are compared and moved by index: a float passed to a function
   would be boxed. *)
let before t i j =
  let wi = t.weights.(i) and wj = t.weights.(j) in
  wi < wj || (wi = wj && t.stamps.(i) < t.stamps.(j))

let move t ~src ~dst =
  let e = t.heap.(src) in
  t.heap.(dst) <- e;
  t.weights.(dst) <- t.weights.(src);
  t.stamps.(dst) <- t.stamps.(src);
  e.slot <- dst

let swap t i j =
  let e = t.heap.(i) and w = t.weights.(i) and s = t.stamps.(i) in
  move t ~src:j ~dst:i;
  t.heap.(j) <- e;
  t.weights.(j) <- w;
  t.stamps.(j) <- s;
  e.slot <- j

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before t i p then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.len then begin
    let c = if l + 1 < t.len && before t (l + 1) l then l + 1 else l in
    if before t c i then begin
      swap t i c;
      sift_down t c
    end
  end

(* Give slot [i] its weight for a use now. Neither policy lowers a
   weight: LRU's tick rises, and GD-S's L never falls. *)
let touch t i =
  t.clock <- t.clock + 1;
  t.stamps.(i) <- t.clock;
  t.weights.(i) <-
    (match t.policy with
    | No_cache -> 0.0
    | Lru -> float_of_int t.clock
    | Gds -> t.inflation +. (1.0 /. float_of_int (Stdlib.max 1 t.heap.(i).cert.Certificate.size)))

let push t e =
  let i = t.len in
  if i = Array.length t.heap then begin
    let cap = Stdlib.max 16 (2 * i) in
    let heap = Array.make cap e and weights = Array.make cap 0.0 and stamps = Array.make cap 0 in
    Array.blit t.heap 0 heap 0 i;
    Array.blit t.weights 0 weights 0 i;
    Array.blit t.stamps 0 stamps 0 i;
    t.heap <- heap;
    t.weights <- weights;
    t.stamps <- stamps
  end;
  t.heap.(i) <- e;
  e.slot <- i;
  t.len <- i + 1;
  touch t i;
  sift_up t i

(* Unlink [e] from the heap: the last entry fills its slot and moves
   whichever way restores the order. Unless the heap is now empty, the
   vacated last slot is pointed at the root so it does not keep [e]'s
   data alive. *)
let delete t e =
  let i = e.slot and last = t.len - 1 in
  e.slot <- -1;
  if i < last then move t ~src:last ~dst:i;
  if last > 0 then t.heap.(last) <- t.heap.(0);
  t.len <- last;
  if i < last then begin
    sift_up t i;
    sift_down t i
  end

(* --- cache ------------------------------------------------------------ *)

let unlink t e =
  delete t e;
  Id.Table.remove t.entries e.cert.Certificate.file_id;
  t.used <- t.used - e.cert.Certificate.size

let remove t file_id =
  match Id.Table.find_opt t.entries file_id with None -> () | Some e -> unlink t e

let rec evict_until t target =
  if t.used > target && t.len > 0 then begin
    if t.policy = Gds then t.inflation <- t.weights.(0);
    unlink t t.heap.(0);
    evict_until t target
  end

let set_budget t budget =
  t.budget <- Stdlib.max 0 budget;
  evict_until t t.budget

let find t file_id =
  match Id.Table.find_opt t.entries file_id with
  | None -> None
  | Some e ->
    touch t e.slot;
    sift_down t e.slot;
    Some (e.cert, e.data)

let mem t file_id = Id.Table.mem t.entries file_id

let offer t ~cert ~data =
  match t.policy with
  | No_cache -> false
  | Lru | Gds -> (
    let size = cert.Certificate.size in
    if size > t.budget then false
    else
      match Id.Table.find_opt t.entries cert.Certificate.file_id with
      | Some _ -> true
      | None ->
        (* Admit, then evict lowest-weight entries to fit; the newcomer
           itself may be the first victim (classic GreedyDual-Size). *)
        let e = { cert; data; slot = -1 } in
        Id.Table.add t.entries cert.Certificate.file_id e;
        push t e;
        t.used <- t.used + size;
        evict_until t t.budget;
        e.slot >= 0)
