(* Hierarchical timing wheel. See the .mli for the contract.

   Invariants:

   - [cur_tick] is the drain frontier: every live cell whose tick is
     <= cur_tick has been moved into [current] (a small binary heap
     ordered by exact (time, seq)); every cell still in a wheel slot or
     the overflow store has tick > cur_tick. Because tick(time) is
     monotone in time, the minimum of [current] is always <= every
     wheeled cell, so popping from [current] yields the global
     (time, seq) minimum — the exact binary-heap order.

   - Placement: a cell [delta = tick - cur_tick] ticks ahead lands in
     the lowest level whose span (2^(bits*(l+1)) ticks) is >= delta, at
     slot [(tick >> bits*l) land mask]. Slot indices recur once per
     span, and delta <= span guarantees the cursor's next visit to that
     index is exactly the cell's due window — no early cascade.

   - Cells with delta beyond the top level's span go to the overflow
     table keyed by epoch [tick >> bits*levels]; the bucket is drained
     when the cursor crosses that epoch's boundary, at which point
     every cell in it has delta <= top span and re-places into a wheel.

   - Cancellation is lazy: [c_live] flips off, [live] drops, and the
     cell is discarded whenever it next surfaces (slot drain, cascade,
     or heap pop). Structural per-slot counts track cells physically
     present, live or not.

   Every event passes through push and pop, so neither allocates
   beyond the cell and its bucket cons: the helpers are top-level
   functions, not closures over [t], and [min_time]/[pop_min] answer
   without an option. *)

type 'a cell = {
  c_time : float;
  c_seq : int;
  c_val : 'a;
  mutable c_live : bool;
}

type 'a handle = 'a cell

(* Specialized binary min-heap over cells, ordered by exact
   (time, seq). A private copy (rather than Stdext.Heap) so the
   comparison is a direct monomorphic inline, not a closure call — this
   heap sits on the pop path of every single event. *)
module Minheap = struct
  type 'a t = { mutable a : 'a cell array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let[@inline] is_empty h = h.n = 0

  let[@inline] before x y =
    x.c_time < y.c_time || (x.c_time = y.c_time && x.c_seq <= y.c_seq)

  let push h c =
    let cap = Array.length h.a in
    if h.n = cap then begin
      let a' = Array.make (if cap = 0 then 8 else 2 * cap) c in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let a = h.a in
    let i = ref h.n in
    h.n <- h.n + 1;
    Array.unsafe_set a !i c;
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let p = (!i - 1) / 2 in
      let pc = Array.unsafe_get a p in
      if before c pc then begin
        Array.unsafe_set a !i pc;
        Array.unsafe_set a p c;
        i := p
      end
      else continue_ := false
    done

  (* The minimum. Requires a non-empty heap. *)
  let[@inline] top h = Array.unsafe_get h.a 0

  (* Drop the minimum. Requires a non-empty heap. *)
  let remove_top h =
    let a = h.a in
    h.n <- h.n - 1;
    let last = Array.unsafe_get a h.n in
    if h.n > 0 then begin
      Array.unsafe_set a 0 last;
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 in
        if l >= h.n then continue_ := false
        else begin
          let r = l + 1 in
          let smallest =
            if r < h.n && before (Array.unsafe_get a r) (Array.unsafe_get a l) then r
            else l
          in
          let sc = Array.unsafe_get a smallest in
          if before sc last then begin
            Array.unsafe_set a !i sc;
            Array.unsafe_set a smallest last;
            i := smallest
          end
          else continue_ := false
        end
      done
    end
end

type 'a t = {
  tick : float;
  inv_tick : float;  (* 1/tick: multiply instead of divide on every push *)
  bits : int;
  slots : int;
  mask : int;
  nlevels : int;
  top_shift : int;  (* bits * nlevels *)
  levels : 'a cell list array array;  (* levels.(l).(slot): unordered bucket *)
  slot_count : int array array;  (* structural cells per slot *)
  level_count : int array;  (* structural cells per level *)
  overflow : (int, 'a cell list ref) Hashtbl.t;  (* epoch -> bucket *)
  mutable overflow_count : int;  (* structural *)
  mutable wheel_count : int;  (* structural cells in levels + overflow *)
  mutable cur_tick : int;
  current : 'a Minheap.t;  (* cells with tick <= cur_tick, exact order *)
  mutable live : int;  (* uncancelled cells anywhere *)
}

let create ?(tick = 1.0) ?(bits = 8) ?(levels = 3) () =
  if not (tick > 0.0) then invalid_arg "Timing_wheel.create: tick must be positive";
  if bits < 1 || levels < 1 || bits * levels > 48 then
    invalid_arg "Timing_wheel.create: bad geometry";
  let slots = 1 lsl bits in
  {
    tick;
    inv_tick = 1.0 /. tick;
    bits;
    slots;
    mask = slots - 1;
    nlevels = levels;
    top_shift = bits * levels;
    levels = Array.init levels (fun _ -> Array.make slots []);
    slot_count = Array.init levels (fun _ -> Array.make slots 0);
    level_count = Array.make levels 0;
    overflow = Hashtbl.create 8;
    overflow_count = 0;
    wheel_count = 0;
    cur_tick = 0;
    current = Minheap.create ();
    live = 0;
  }

let length t = t.live
let is_empty t = t.live = 0

let[@inline] tick_of t time = int_of_float (time *. t.inv_tick)

(* Place [cell], due at tick [at] = cur_tick + [delta] (delta > 0), in
   level [l] or above, or in the overflow store. *)
let rec place t cell at delta l =
  if l >= t.nlevels then begin
    let epoch = at lsr t.top_shift in
    (match Hashtbl.find_opt t.overflow epoch with
    | Some r -> r := cell :: !r
    | None -> Hashtbl.replace t.overflow epoch (ref [ cell ]));
    t.overflow_count <- t.overflow_count + 1
  end
  else if delta <= 1 lsl (t.bits * (l + 1)) then begin
    let slot = (at lsr (t.bits * l)) land t.mask in
    let lv = Array.unsafe_get t.levels l in
    let sc = Array.unsafe_get t.slot_count l in
    Array.unsafe_set lv slot (cell :: Array.unsafe_get lv slot);
    Array.unsafe_set sc slot (Array.unsafe_get sc slot + 1);
    t.level_count.(l) <- t.level_count.(l) + 1
  end
  else place t cell at delta (l + 1)

(* Place [cell] (tick > cur_tick) into a wheel level or the overflow
   store. Shared by push, cascade and overflow drain. *)
let insert_wheel t cell at =
  place t cell at (at - t.cur_tick) 0;
  t.wheel_count <- t.wheel_count + 1

let[@inline] insert t cell =
  let at = tick_of t cell.c_time in
  if at <= t.cur_tick then Minheap.push t.current cell else insert_wheel t cell at

let push_handle t ~time ~seq v =
  if not (time >= 0.0) then invalid_arg "Timing_wheel.push: negative or NaN time";
  let cell = { c_time = time; c_seq = seq; c_val = v; c_live = true } in
  t.live <- t.live + 1;
  insert t cell;
  cell

let push t ~time ~seq v = ignore (push_handle t ~time ~seq v : _ handle)

let cancel t h =
  if h.c_live then begin
    h.c_live <- false;
    t.live <- t.live - 1
  end

(* Take all cells out of levels.(l).(s), fixing structural counts. *)
let drain_slot t l s =
  let cells = t.levels.(l).(s) in
  let n = t.slot_count.(l).(s) in
  if n > 0 then begin
    t.levels.(l).(s) <- [];
    t.slot_count.(l).(s) <- 0;
    t.level_count.(l) <- t.level_count.(l) - n;
    t.wheel_count <- t.wheel_count - n
  end;
  cells

(* Re-place drained cells; cancelled ones are dropped on the floor
   ([live] already accounts for them). *)
let rec reinsert t = function
  | [] -> ()
  | c :: rest ->
    if c.c_live then insert t c;
    reinsert t rest

let rec push_live heap = function
  | [] -> ()
  | c :: rest ->
    if c.c_live then Minheap.push heap c;
    push_live heap rest

(* Boundary work when the cursor enters the window starting at [from]
   (a multiple of [slots]; cur_tick = from - 1). Top-down so cells
   settle into their final slot in one pass: overflow epoch first, then
   each level whose window also begins at [from]. *)
let cascade_at t from =
  if from land ((1 lsl t.top_shift) - 1) = 0 then begin
    let epoch = from lsr t.top_shift in
    match Hashtbl.find_opt t.overflow epoch with
    | Some r ->
      Hashtbl.remove t.overflow epoch;
      let cells = !r in
      let n = List.length cells in
      t.overflow_count <- t.overflow_count - n;
      t.wheel_count <- t.wheel_count - n;
      reinsert t cells
    | None -> ()
  end;
  for l = t.nlevels - 1 downto 1 do
    if from land ((1 lsl (t.bits * l)) - 1) = 0 then begin
      let s = (from lsr (t.bits * l)) land t.mask in
      if t.slot_count.(l).(s) > 0 then reinsert t (drain_slot t l s)
    end
  done

(* Advance the drain frontier until [current] holds the global minimum
   (or everything is drained). Each iteration either moves cells into
   [current] or skips an empty window in O(1). *)
let rec refill t =
  if Minheap.is_empty t.current && t.wheel_count > 0 then begin
    let from = t.cur_tick + 1 in
    if from land t.mask = 0 then cascade_at t from;
    let wbase = from land lnot t.mask in
    let found = ref (-1) in
    if t.level_count.(0) > 0 then begin
      let sc = Array.unsafe_get t.slot_count 0 in
      let s = ref (from land t.mask) in
      while !found < 0 && !s < t.slots do
        if Array.unsafe_get sc !s > 0 then found := !s else incr s
      done
    end;
    if !found >= 0 then begin
      t.cur_tick <- wbase + !found;
      push_live t.current (drain_slot t 0 !found)
    end
    else begin
      (* Nothing left in this window: hop to its end, and when only the
         overflow store is populated, jump straight to the next
         populated epoch's boundary. *)
      t.cur_tick <- wbase + t.slots - 1;
      if t.overflow_count = t.wheel_count && t.overflow_count > 0 then begin
        let min_epoch = Hashtbl.fold (fun e _ acc -> Stdlib.min e acc) t.overflow max_int in
        let target = (min_epoch lsl t.top_shift) - 1 in
        if target > t.cur_tick then t.cur_tick <- target
      end
    end;
    refill t
  end

(* The minimum live cell, left at the top of [current]; cancelled cells
   that surface first are discarded. Requires [t.live > 0]. *)
let rec min_cell t =
  refill t;
  if Minheap.is_empty t.current then
    failwith (Printf.sprintf "Timing_wheel: %d live events but none left to pop" t.live);
  let c = Minheap.top t.current in
  if c.c_live then c
  else begin
    Minheap.remove_top t.current;
    min_cell t
  end

let min_time t =
  if t.live = 0 then invalid_arg "Timing_wheel.min_time: empty wheel";
  (min_cell t).c_time

let pop_min t =
  if t.live = 0 then invalid_arg "Timing_wheel.pop_min: empty wheel";
  let c = min_cell t in
  Minheap.remove_top t.current;
  t.live <- t.live - 1;
  c.c_val

let pop t = if t.live = 0 then None else Some (pop_min t)
