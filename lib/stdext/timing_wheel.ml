(* Timing wheel with a far-timer heap. See the .mli for the contract.

   Geometry: one wheel of [slots] = 4096 buckets, each one tick (one
   time unit) wide, plus a heap [far] for cells further out.

   Invariants:

   - [cur_tick] is the drain frontier: every cell whose tick is
     <= cur_tick has been moved into [current] (a small binary heap
     ordered by exact (time, seq)); every other cell has a later tick.
     Because tick(time) is monotone in time, the minimum of [current]
     is always <= every cell outside it, so popping from [current]
     yields the global (time, seq) minimum — the exact binary-heap
     order.

   - A cell with tick in (cur_tick, cur_tick + slots) sits in bucket
     [tick land mask]. Those are fewer than [slots] distinct ticks, so
     a bucket holds the cells of one tick only.

   - Every cell in [far] has tick >= cur_tick + slots. Whenever the
     frontier moves, the far cells that fall inside the new window move
     into their bucket (or into [current]), so the invariant holds
     again before the next pop.

   Every event passes through push and pop, so neither allocates
   beyond the cell and its bucket cons: the helpers are top-level
   functions, not closures over [t], and [min_time]/[pop_min] answer
   without an option. *)

let slots = 4096
let mask = slots - 1

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
  wheel : 'a cell list array;  (* wheel.(tick land mask): unordered bucket *)
  mutable wheel_count : int;  (* cells in the wheel *)
  far : 'a Minheap.t;  (* cells at least [slots] ticks past the frontier *)
  mutable cur_tick : int;
  current : 'a Minheap.t;  (* cells with tick <= cur_tick, exact order *)
}

let create () =
  {
    wheel = Array.make slots [];
    wheel_count = 0;
    far = Minheap.create ();
    cur_tick = 0;
    current = Minheap.create ();
  }

let is_empty t = t.wheel_count = 0 && Minheap.is_empty t.far && Minheap.is_empty t.current

(* Slots are one time unit wide. *)
let[@inline] tick_of time = int_of_float time

let insert t cell =
  let at = tick_of cell.c_time in
  if at <= t.cur_tick then Minheap.push t.current cell
  else if at - t.cur_tick < slots then begin
    let s = at land mask in
    Array.unsafe_set t.wheel s (cell :: Array.unsafe_get t.wheel s);
    t.wheel_count <- t.wheel_count + 1
  end
  else Minheap.push t.far cell

let push t ~time ~seq v =
  if not (time >= 0.0) then invalid_arg "Timing_wheel.push: negative or NaN time";
  insert t { c_time = time; c_seq = seq; c_val = v }

(* Move a drained bucket into [current]. *)
let rec drain t = function
  | [] -> ()
  | c :: rest ->
    Minheap.push t.current c;
    t.wheel_count <- t.wheel_count - 1;
    drain t rest

(* Move the frontier to [tick] and the far cells it brings within
   [slots] ticks into the wheel or [current]. *)
let advance t tick =
  t.cur_tick <- tick;
  let far = t.far in
  while (not (Minheap.is_empty far)) && tick_of (Minheap.top far).c_time - tick < slots do
    let c = Minheap.top far in
    Minheap.remove_top far;
    insert t c
  done

(* Advance the drain frontier until [current] holds the global minimum
   (or everything is drained): to the next occupied bucket, or, with
   the wheel empty, straight to the far heap's minimum. *)
let refill t =
  if Minheap.is_empty t.current then begin
    if t.wheel_count > 0 then begin
      let w = t.wheel in
      let tick = ref (t.cur_tick + 1) in
      while Array.unsafe_get w (!tick land mask) == [] do
        incr tick
      done;
      let s = !tick land mask in
      let cells = Array.unsafe_get w s in
      Array.unsafe_set w s [];
      drain t cells;
      advance t !tick
    end
    else if not (Minheap.is_empty t.far) then advance t (tick_of (Minheap.top t.far).c_time)
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
