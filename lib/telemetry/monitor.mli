(** Online invariant monitors: continuously evaluated predicates over a
    running system, with first-violation capture.

    Two styles of check share one registry:

    - {e sampled} predicates ({!register}) are evaluated on every
      {!tick} (driven by the network's sim-time sampler). A failing
      result is a violation, and a run of consecutive failures counts
      as one: the episode ends at the next [Ok]. State that may be
      transiently wrong during legitimate repair (a node just failed;
      replicas are being restored) is the predicate's own business: it
      keeps its own per-item clock and reports an error only once
      repair has overrun its bound.

    - {e event-driven} checks ({!record_check}) are asserted inline at
      the code path that knows the answer (e.g. the hop bound at
      message delivery); a failed check is an immediate violation.

    On the first violation of each monitor, the sim-time, the failure
    detail, and a snippet of the causal trace (the most recent trace
    events, if a tracer is attached) are captured for the report.

    A set is active iff it was created with a {!Sink.t}: the run-scoped
    collector every violation is also reported to, so a CI driver can
    run a whole experiment suite — systems on several domains included
    — and fail the run if any invariant broke anywhere. Inactive sets
    cost one branch per check site. *)

module Sink : sig
  type t

  val create : unit -> t

  val violations : t -> int
  (** Violations reported so far by every set made with this sink.
      Thread-safe: sets on different domains may share one sink. *)

  val summaries : t -> string list
  (** One line per distinct violated monitor, oldest first. *)
end

type t

val create : ?sink:Sink.t -> unit -> t
(** Active iff [sink] is given. *)

val active : t -> bool
val attach_tracer : t -> Trace.t -> unit

val register :
  t ->
  name:string ->
  ?interval:float ->
  (now:float -> (unit, string) result) ->
  unit
(** Add a sampled predicate. [interval] (default 0) is the minimum
    sim-time between evaluations — an expensive predicate whose repair
    bound is long can opt out of every-tick sampling; it is still only
    evaluated from {!tick}, so
    the effective period is the tick period rounded up to [interval].
    No-op when inactive. Re-registering a name replaces the
    predicate. *)

val tick : t -> now:float -> unit
(** Evaluate every sampled predicate at sim-time [now]. No-op when
    inactive. *)

val record_check : t -> name:string -> now:float -> ?detail:string -> bool -> unit
(** Event-driven assertion: [false] is an immediate violation. No-op
    when inactive. *)

type report = {
  m_name : string;
  m_checks : int;  (** times the predicate was evaluated *)
  m_failures : int;  (** raw [false]/[Error] results *)
  m_violations : int;  (** failed event checks, or runs of consecutive sampled failures *)
  m_first_violation : float option;  (** sim-time of the first violation *)
  m_first_detail : string;
  m_trace_context : string;  (** recent causal-trace events at first violation *)
}

val reports : t -> report list
(** One report per registered monitor (sampled and event-driven),
    sorted by name. *)

val violations : t -> int
(** Total violations across this set's monitors. *)
