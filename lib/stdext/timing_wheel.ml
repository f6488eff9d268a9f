(* Hierarchical timing wheel. See the .mli for the contract.

   Geometry: [levels] = 3 wheels of [slots] = 2^[bits] = 256 slots, a
   level-0 slot one time unit wide, each level [slots] times coarser.

   Invariants:

   - [cur_tick] is the drain frontier: every cell whose tick is
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

   Every event passes through push and pop, so neither allocates
   beyond the cell and its bucket cons: the helpers are top-level
   functions, not closures over [t], and [min_time]/[pop_min] answer
   without an option. *)

let bits = 8
let slots = 1 lsl bits
let mask = slots - 1
let levels = 3
let top_shift = bits * levels

type 'a cell = { c_time : float; c_seq : int; c_val : 'a }

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
  wheels : 'a cell list array array;  (* wheels.(l).(slot): unordered bucket *)
  slot_count : int array array;  (* cells per slot *)
  level_count : int array;  (* cells per level *)
  overflow : (int, 'a cell list ref) Hashtbl.t;  (* epoch -> bucket *)
  mutable overflow_count : int;
  mutable wheel_count : int;  (* cells in the wheels + overflow *)
  mutable cur_tick : int;
  current : 'a Minheap.t;  (* cells with tick <= cur_tick, exact order *)
}

let create () =
  {
    wheels = Array.init levels (fun _ -> Array.make slots []);
    slot_count = Array.init levels (fun _ -> Array.make slots 0);
    level_count = Array.make levels 0;
    overflow = Hashtbl.create 8;
    overflow_count = 0;
    wheel_count = 0;
    cur_tick = 0;
    current = Minheap.create ();
  }

let is_empty t = t.wheel_count = 0 && Minheap.is_empty t.current

(* Level-0 slots are one time unit wide. *)
let[@inline] tick_of time = int_of_float time

(* Place [cell], due at tick [at] = cur_tick + [delta] (delta > 0), in
   level [l] or above, or in the overflow store. *)
let rec place t cell at delta l =
  if l >= levels then begin
    let epoch = at lsr top_shift in
    (match Hashtbl.find_opt t.overflow epoch with
    | Some r -> r := cell :: !r
    | None -> Hashtbl.replace t.overflow epoch (ref [ cell ]));
    t.overflow_count <- t.overflow_count + 1
  end
  else if delta <= 1 lsl (bits * (l + 1)) then begin
    let slot = (at lsr (bits * l)) land mask in
    let lv = Array.unsafe_get t.wheels l in
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
  let at = tick_of cell.c_time in
  if at <= t.cur_tick then Minheap.push t.current cell else insert_wheel t cell at

let push t ~time ~seq v =
  if not (time >= 0.0) then invalid_arg "Timing_wheel.push: negative or NaN time";
  insert t { c_time = time; c_seq = seq; c_val = v }

(* Take all cells out of wheels.(l).(s), fixing the counts. *)
let drain_slot t l s =
  let cells = t.wheels.(l).(s) in
  let n = t.slot_count.(l).(s) in
  if n > 0 then begin
    t.wheels.(l).(s) <- [];
    t.slot_count.(l).(s) <- 0;
    t.level_count.(l) <- t.level_count.(l) - n;
    t.wheel_count <- t.wheel_count - n
  end;
  cells

let rec reinsert t = function
  | [] -> ()
  | c :: rest ->
    insert t c;
    reinsert t rest

let rec push_all heap = function
  | [] -> ()
  | c :: rest ->
    Minheap.push heap c;
    push_all heap rest

(* Boundary work when the cursor enters the window starting at [from]
   (a multiple of [slots]; cur_tick = from - 1). Top-down so cells
   settle into their final slot in one pass: overflow epoch first, then
   each level whose window also begins at [from]. *)
let cascade_at t from =
  if from land ((1 lsl top_shift) - 1) = 0 then begin
    let epoch = from lsr top_shift in
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
  for l = levels - 1 downto 1 do
    if from land ((1 lsl (bits * l)) - 1) = 0 then begin
      let s = (from lsr (bits * l)) land mask in
      if t.slot_count.(l).(s) > 0 then reinsert t (drain_slot t l s)
    end
  done

(* Advance the drain frontier until [current] holds the global minimum
   (or everything is drained). Each iteration either moves cells into
   [current] or skips an empty window in O(1). *)
let rec refill t =
  if Minheap.is_empty t.current && t.wheel_count > 0 then begin
    let from = t.cur_tick + 1 in
    if from land mask = 0 then cascade_at t from;
    let wbase = from land lnot mask in
    let found = ref (-1) in
    if t.level_count.(0) > 0 then begin
      let sc = Array.unsafe_get t.slot_count 0 in
      let s = ref (from land mask) in
      while !found < 0 && !s < slots do
        if Array.unsafe_get sc !s > 0 then found := !s else incr s
      done
    end;
    if !found >= 0 then begin
      t.cur_tick <- wbase + !found;
      push_all t.current (drain_slot t 0 !found)
    end
    else begin
      (* Nothing left in this window: hop to its end, and when only the
         overflow store is populated, jump straight to the next
         populated epoch's boundary. *)
      t.cur_tick <- wbase + slots - 1;
      if t.overflow_count = t.wheel_count && t.overflow_count > 0 then begin
        let min_epoch = Hashtbl.fold (fun e _ acc -> Stdlib.min e acc) t.overflow max_int in
        let target = (min_epoch lsl top_shift) - 1 in
        if target > t.cur_tick then t.cur_tick <- target
      end
    end;
    refill t
  end

let min_time t =
  if is_empty t then invalid_arg "Timing_wheel.min_time: empty wheel";
  refill t;
  (Minheap.top t.current).c_time

let pop_min t =
  if is_empty t then invalid_arg "Timing_wheel.pop_min: empty wheel";
  refill t;
  let c = Minheap.top t.current in
  Minheap.remove_top t.current;
  c.c_val

let pop t = if is_empty t then None else Some (pop_min t)
