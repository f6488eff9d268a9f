(** Per-system metric registry.

    Metrics are identified by name plus an optional label set; the
    accessors are get-or-create, so call sites can look a metric up
    cheaply and callers elsewhere read the same instance. Every
    simulated system owns its own registry — metrics are deliberately
    not global so parallel simulations in one process never collide.
    The registry also owns the system's trace-event ring ({!tracer})
    and its invariant-monitor set ({!monitors}). *)

type t

val create : ?name:string -> ?trace_capacity:int -> unit -> t
(** [trace_capacity] sizes the trace ring (see {!Trace.create}). The
    monitor set is active iff {!Monitor.set_default_active} turned
    monitoring on. *)

val tracer : t -> Trace.t
val monitors : t -> Monitor.t

val counter : t -> ?labels:(string * string) list -> string -> Counter.t
val gauge : t -> ?labels:(string * string) list -> string -> Gauge.t
val histogram : t -> ?labels:(string * string) list -> string -> Histogram.t
(** Get-or-create (histograms get {!Histogram.create}'s default
    reservoir). Raises [Invalid_argument] if the name+labels pair is
    already registered as a different metric type. *)

(** {2 Export} *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of Histogram.summary

type item = { i_name : string; i_labels : (string * string) list; i_value : value }

val snapshot : t -> item list
(** Sorted by metric name then labels. *)

val to_table : t -> Past_stdext.Text_table.t
(** Includes synthetic [trace.dropped_events] rows when (and only when)
    the trace ring has overwritten events, so the metric schema of a
    loss-free run is unchanged. *)

val to_json : t -> Past_stdext.Json.t
(** Always carries a ["trace"] object with [total_recorded],
    [dropped_total] and per-kind [dropped] counts. *)

val print : ?title:string -> t -> unit
