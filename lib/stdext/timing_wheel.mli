(** Timing wheel with a far-timer heap: an O(1)-amortized
    discrete-event queue.

    The simulator's event queue. Events carry a [(time, seq)] priority;
    pop order is {e exactly} ascending time, FIFO [seq] among equal
    times (the EXP1 golden fixture and every [--jobs] byte-compare
    depend on this order). The tests check it on randomized traces
    against a reference binary heap that lives with them.

    Geometry (fixed): one wheel of 4096 buckets, each one time unit
    (the simulator's sim-ms) wide. An event due fewer than 4096 units
    past the drain frontier lands in the bucket of its tick — O(1).
    An event further out goes to a binary heap of far timers, and
    moves into its bucket once the frontier comes within 4096 units of
    it; with the wheel empty, the frontier hops straight to the far
    heap's minimum. Simulator traffic is nearly all near-term (message
    latencies, keep-alive periods); the far heap holds the few long
    timers, such as client operation timeouts.

    The events of the tick at the frontier are ordered through a small
    binary heap, so within-tick ordering uses the exact [(time, seq)]
    comparison, not the quantized tick. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Schedule a value. [time] must be non-negative and not NaN; [seq]
    breaks ties among equal times (callers pass a monotonically
    increasing counter for FIFO semantics). O(1), or O(log f) for
    an event 4096 or more time units ahead. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum-(time, seq) event. Amortized
    O(1) plus O(log m) in the population m of the event's own tick,
    and O(log f) in the far-heap population f for a far event. *)

(** {2 Allocation-free access}

    The simulator pops through these: they answer with the minimum
    event's time and value directly, with no option per event. Each
    raises [Invalid_argument] on an empty wheel; test {!is_empty}
    first. *)

val min_time : 'a t -> float
(** Time of the minimum-(time, seq) event. *)

val pop_min : 'a t -> 'a
(** Remove and return that event. *)
