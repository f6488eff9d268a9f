(** Windowed time-series over registry metrics.

    A time-series holds a set of named probes and a bounded ring of
    sampled windows. Each call to {!sample} closes one window: every
    probe is read, cumulative probes export the delta since the
    previous window, level probes export the instantaneous value, and
    windowed histograms export quantiles over just that window (the
    backing histogram is reset after each sample, so it must be
    dedicated to the series, not shared with end-of-run exports).

    Sampling is driven externally — by a sim-time sampler on the
    network (see [Past_simnet.Net.add_sampler]) or manually at logical
    checkpoints — so the module itself has no notion of a clock. *)

type t

val create : unit -> t
(** A ring of 1024 windows; the oldest windows are discarded once full,
    counted in {!dropped_windows}. *)

val add_cumulative : t -> name:string -> (unit -> int) -> unit
(** Probe a monotone counter; windows report per-window increments. *)

val add_level : t -> name:string -> (unit -> float) -> unit
(** Probe an instantaneous value (a gauge); windows report it as-is. *)

val add_windowed_histogram : t -> name:string -> Histogram.t -> unit
(** Report per-window count/mean/p50/p99 of the given histogram, which
    is {e reset} after every sample — hand this series its own
    histogram instance. *)

val sample : t -> now:float -> unit
(** Close the current window at sim-time [now]. *)

type value =
  | Count of int
  | Level of float
  | Dist of { d_count : int; d_mean : float; d_p50 : float; d_p99 : float }

type window = { w_start : float; w_end : float; w_values : (string * value) list }

val windows : t -> window list
(** Retained windows, oldest first. *)

val window_count : t -> int
val dropped_windows : t -> int

val to_table : ?max_rows:int -> t -> Past_stdext.Text_table.t
(** Text rendering; when more than [max_rows] (default 24) windows are
    retained, evenly strided rows are shown. *)
