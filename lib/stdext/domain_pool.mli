(** A fixed pool of worker domains for embarrassingly parallel trials.

    The experiment suite is dominated by independent simulations (one
    overlay, one seed, one telemetry registry per row); [map] fans those
    rows out over OCaml 5 domains and merges the results in submission
    order, so parallel output is byte-identical to sequential output.
    [past_sim] creates one pool from [--jobs] and hands it to the
    experiments.

    No external dependencies (no domainslib): a shared FIFO of thunks
    guarded by a mutex/condition pair. The caller participates in
    draining the queue, which gives two properties for free:

    - a pool of [jobs = j] uses exactly [j] domains ([j - 1] workers
      plus the caller), and
    - a task that itself calls [map] on the same pool cannot deadlock —
      whoever waits also works. *)

type t

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism the
    runtime suggests. *)

val max_jobs : int
(** 64: the widest pool, well under the runtime's domain limit. *)

val create : jobs:int -> t
(** A pool running up to [jobs] tasks concurrently. [jobs] is clamped
    to [1, {!max_jobs}]; values above [recommended ()] are honoured
    (the domains timeshare), which keeps explicit [--jobs N] meaningful
    on small machines. [jobs = 1] spawns no domains at all. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map: [map pool f items] equals
    [List.map f items] for pure (or per-item isolated) [f], regardless
    of pool width or scheduling. When [jobs pool = 1] or the list has
    fewer than two elements this is exactly [List.map] — no queueing,
    no synchronization.

    If one or more applications raise, every task still runs to
    completion (no cancellation), then the exception of the
    lowest-indexed failing item is re-raised in the caller with its
    backtrace. *)

val shutdown : t -> unit
(** Drain remaining tasks, stop and join the worker domains. The pool
    must not be used afterwards. Idempotent. *)
