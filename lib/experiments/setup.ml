(* What one run of the experiments is configured with, built once by
   the binary from --jobs, --store and --monitors and handed to every
   experiment's [run]: the worker pool its rows fan out over, the store
   backend of every node it creates and the sink its invariant monitors
   report to. *)

module Domain_pool = Past_stdext.Domain_pool
module Store = Past_core.Store
module Monitor = Past_telemetry.Monitor

type t = {
  pool : Domain_pool.t;
  store : Store.backend;
  monitors : Monitor.Sink.t option;  (** [None]: monitors off *)
}

(* The default of every [run]: a width-1 pool (it spawns no domain),
   in-memory stores and monitors off. *)
let sequential () = { pool = Domain_pool.create ~jobs:1; store = Store.Mem; monitors = None }

(* [Overlay.create] and [System.create] with this setup's monitor sink
   and, for a system, its store backend. *)
let overlay t = Past_pastry.Overlay.create ?monitors:t.monitors
let system t = Past_core.System.create ~store_backend:t.store ?monitors:t.monitors
