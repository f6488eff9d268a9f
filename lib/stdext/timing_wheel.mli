(** Hierarchical timing wheel: an O(1)-amortized discrete-event queue.

    The simulator's event queue. Events carry a [(time, seq)] priority;
    pop order is {e exactly} ascending time, FIFO [seq] among equal
    times (the EXP1 golden fixture and every [--jobs] byte-compare
    depend on this order). The tests check it on randomized traces
    against {!Heap}, a reference binary heap nothing else uses.

    Geometry: [levels] wheels of [2^bits] slots each, with slot
    granularity [tick] at level 0 and a factor [2^bits] coarser per
    level. An event due within level [l]'s span lands in one bucket by
    absolute slot index — O(1) — and cascades one level down each time
    the cursor crosses its window boundary. Events beyond the top
    level's horizon go to an overflow store keyed by epoch (top-level
    wrap count): far-future timers (e.g. maintenance re-arms far ahead)
    cost O(1) to insert and never degrade near-term scheduling.

    Events that share a level-0 slot are ordered through a tiny
    per-slot binary heap, so within-tick ordering uses the exact
    [(time, seq)] comparison, not the quantized tick. *)

type 'a t

type 'a handle
(** A pushed event, for O(1) lazy cancellation. *)

val create : ?tick:float -> ?bits:int -> ?levels:int -> unit -> 'a t
(** [tick] (default 1.0) is the level-0 slot width in time units;
    [bits] (default 8) gives [2^bits] slots per wheel; [levels]
    (default 3) wheels cover a horizon of [2^(bits*levels)] ticks
    before the overflow store takes over. Raises [Invalid_argument] on
    non-positive [tick], [bits < 1], [levels < 1], or a geometry wider
    than 48 bits of ticks. *)

val length : 'a t -> int
(** Live (pushed and not yet popped or cancelled) events. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Schedule a value. [time] must be non-negative and not NaN; [seq]
    breaks ties among equal times (callers pass a monotonically
    increasing counter for FIFO semantics). O(1). *)

val push_handle : 'a t -> time:float -> seq:int -> 'a -> 'a handle
(** As {!push}, returning a handle for {!cancel}. *)

val cancel : 'a t -> 'a handle -> unit
(** Lazily cancel a pushed event: O(1), idempotent, a no-op if the
    event was already popped. Cancelled events are dropped when their
    slot drains and are never returned by {!pop} or {!pop_min}. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum-(time, seq) live event. Amortized
    O(1) plus O(log m) in the population m of the event's own tick. *)

(** {2 Allocation-free access}

    The simulator pops through these: they answer with the minimum
    event's time and value directly, with no option per event. Each
    raises [Invalid_argument] on an empty wheel; test {!is_empty}
    first. *)

val min_time : 'a t -> float
(** Time of the minimum-(time, seq) live event. *)

val pop_min : 'a t -> 'a
(** Remove and return that event. *)
