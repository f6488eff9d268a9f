(** Hierarchical timing wheel: an O(1)-amortized discrete-event queue.

    The simulator's event queue. Events carry a [(time, seq)] priority;
    pop order is {e exactly} ascending time, FIFO [seq] among equal
    times (the EXP1 golden fixture and every [--jobs] byte-compare
    depend on this order). The tests check it on randomized traces
    against {!Heap}, a reference binary heap nothing else uses.

    Geometry (fixed): 3 wheels of 256 slots each; a level-0 slot is one
    time unit (the simulator's sim-ms) wide, and each level is 256
    times coarser, so the wheels cover 2^24 time units ahead. An event
    due within level [l]'s span lands in one bucket by absolute slot
    index — O(1) — and cascades one level down each time the cursor
    crosses its window boundary. Events beyond the top level's horizon
    go to an overflow store keyed by epoch (top-level wrap count):
    far-future timers (e.g. maintenance re-arms far ahead) cost O(1) to
    insert and never degrade near-term scheduling.

    Events that share a level-0 slot are ordered through a tiny
    per-slot binary heap, so within-tick ordering uses the exact
    [(time, seq)] comparison, not the quantized tick. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Schedule a value. [time] must be non-negative and not NaN; [seq]
    breaks ties among equal times (callers pass a monotonically
    increasing counter for FIFO semantics). O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the minimum-(time, seq) event. Amortized
    O(1) plus O(log m) in the population m of the event's own tick. *)

(** {2 Allocation-free access}

    The simulator pops through these: they answer with the minimum
    event's time and value directly, with no option per event. Each
    raises [Invalid_argument] on an empty wheel; test {!is_empty}
    first. *)

val min_time : 'a t -> float
(** Time of the minimum-(time, seq) event. *)

val pop_min : 'a t -> 'a
(** Remove and return that event. *)
