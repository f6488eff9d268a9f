(** Bounded ring of typed trace events with sim-time timestamps.

    Recording is O(1) and memory is fixed, so tracing stays on during
    large simulations; old events are overwritten once the ring wraps,
    and overwritten events are counted per kind ({!dropped}) so a
    truncated trace is never mistaken for a complete one.

    Everything traced is a {e span}: one logical operation (client
    insert/lookup/reclaim, repair cascade) or one Pastry routed message
    ([op = "route"], [detail] = key). A span may name a parent span; a
    route records each hop with the routing stage (leaf set, routing
    table, or the rare-case fallback) that chose it, and ends where it
    was delivered. One fold rebuilds every span from the retained
    events; {!routes}, {!spans} and the causal forest ({!trees}) are
    views of it, and {!chrome_json} exports it as Chrome trace-event
    JSON loadable in Perfetto. *)

type stage = Leaf_set | Routing_table | Rare_case | Local

val stage_name : stage -> string

val no_parent : int
(** Sentinel ([-1]) marking a root span. *)

val route_op : string
(** ["route"]: the [op] of a routed message's span. *)

type event_kind =
  | Span_start of { span : int; parent : int; op : string; detail : string }
  | Hop of { span : int; seq : int; to_ : int; stage : stage }
      (** recorded by the forwarding node; [seq] is the hop's index *)
  | Point of { span : int; name : string }
  | Span_end of { span : int; note : string }
      (** recorded where the span ended: a route's delivery node, with
          the delivering stage's {!stage_name} as [note] *)

type event = { time : float; node : int; kind : event_kind }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 events; 0 disables recording entirely. *)

val enabled : t -> bool
val record : t -> time:float -> node:int -> event_kind -> unit

val start_span : t -> time:float -> node:int -> parent:int -> op:string -> string -> int
(** [start_span t ~time ~node ~parent ~op detail] mints a fresh span id
    and records the span's [Span_start] with [detail]; it returns the
    id, which ties the span's later events together. The id is minted
    even when recording is off. *)

val events : t -> event list
(** Retained events, oldest first. *)

val total_recorded : t -> int
(** Events ever recorded, including overwritten ones. *)

val dropped_total : t -> int
(** Events lost to ring overwrites since creation. *)

val dropped : t -> (string * int) list
(** Drop counts by event kind, non-zero entries only, sorted by kind
    name. *)

(** {2 Reconstruction} *)

type hop = { h_time : float; h_from : int; h_to : int; h_stage : stage }

type point = { pt_time : float; pt_node : int; pt_name : string; pt_count : int }
(** A milestone inside a span; identical (name, node) repeats collapse
    into [pt_count]. *)

type span = {
  span_id : int;
  span_parent : int; (** parent span, or {!no_parent} *)
  op : string;
  detail : string;
  s_start : float;
  s_node : int; (** where it started: a route's origin *)
  s_end : float option; (** [None] if the end event was dropped or never recorded *)
  end_node : int; (** where it ended ([-1] if unended): a route's delivery node *)
  note : string; (** the end's note *)
  hops : hop list; (** in forwarding order *)
  points : point list; (** in time order *)
}
(** Spans are rebuilt only if their start survives in the ring.
    Duplicate starts and ends keep the first recording and hops are
    de-duplicated by sequence number, so fault-injected duplicate
    deliveries never fork a tree or double-count hops. *)

val routes : t -> span list
(** Routed messages whose start and delivery both survive, oldest
    first. *)

val route_to_string : span -> string

val spans : t -> span list
(** Every span that is not a route, oldest first. *)

type tree = { t_span : span; t_children : tree list }

val trees : t -> tree list
(** Causal forest: spans whose parent did not survive, each with its
    child spans (routes included), oldest first. Kept as the oracle for
    the parent links the tracer records: the tests check that repair
    cascades under faults nest as trees. *)

val chrome_json : t -> Past_stdext.Json.t
(** The retained spans as a Chrome trace-event JSON object
    ([{"traceEvents": [...]}]), operations first, then routes. Each
    span is an async begin/end pair (an unended one ends at the last
    event and is marked truncated), hops and points are instant events;
    sim-time maps to microseconds 1:1000. *)
