(** Bounded ring of typed trace events with sim-time timestamps.

    Recording is O(1) and memory is fixed, so tracing stays on during
    large simulations; old events are overwritten once the ring wraps,
    and overwritten events are counted per kind ({!dropped}) so a
    truncated trace is never mistaken for a complete one.

    Two families of events share one id space:

    - {e routes} — one Pastry routed message, hop by hop, including
      which routing stage (leaf set, routing table, or the rare-case
      fallback) chose each next hop;
    - {e spans} — one logical operation (client insert/lookup, repair
      cascade), which may cause several routes and fan-out messages.

    A route or span may name a parent span, so the full causal tree of
    an operation can be reconstructed ({!trees}) and exported as Chrome
    trace-event JSON loadable in Perfetto ({!chrome_json}). *)

type stage = Leaf_set | Routing_table | Rare_case | Local

val stage_name : stage -> string

val no_parent : int
(** Sentinel ([-1]) marking a root span or an unparented route. *)

type event_kind =
  | Route_start of { route : int; parent : int; key : string }
  | Route_hop of { route : int; seq : int; from_ : int; to_ : int; stage : stage }
  | Route_deliver of { route : int; hops : int; stage : stage }
  | Span_start of { span : int; parent : int; op : string; detail : string }
  | Span_end of { span : int; note : string }
  | Point of { span : int; name : string }
  | Note of string

type event = { time : float; node : int; kind : event_kind }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 events; 0 disables recording entirely. *)

val enabled : t -> bool
val record : t -> time:float -> node:int -> event_kind -> unit

val new_route_id : t -> int
(** Fresh id tying one routed message's events together. Route and
    span ids come from the same sequence, so an id is unique across
    both families. *)

val new_span_id : t -> int
(** Fresh id for an operation span (same sequence as route ids). *)

val events : t -> event list
(** Retained events, oldest first. *)

val total_recorded : t -> int
(** Events ever recorded, including overwritten ones. *)

val dropped_total : t -> int
(** Events lost to ring overwrites since creation. *)

val dropped : t -> (string * int) list
(** Drop counts by event kind, non-zero entries only, sorted by kind
    name. *)

(** {2 Route reconstruction} *)

type hop = { h_time : float; h_from : int; h_to : int; h_stage : stage }

type route = {
  route_id : int;
  parent : int; (** owning span, or {!no_parent} *)
  key : string;
  origin : int;
  started : float;
  hops : hop list;
  delivered_at : int;
  delivered_time : float;
  delivered_stage : stage;
}

val routes : t -> route list
(** Reconstructed routes, oldest first. Only routes whose start and
    delivery events both survive in the ring are returned. Hops are
    de-duplicated by sequence number (first occurrence wins), so
    fault-injected duplicate deliveries never double-count hops. *)

val route_to_string : route -> string

(** {2 Span / causal-tree reconstruction} *)

type point = { pt_time : float; pt_node : int; pt_name : string; pt_count : int }
(** A milestone inside a span; identical (name, node) repeats collapse
    into [pt_count]. *)

type span = {
  span_id : int;
  span_parent : int; (** parent span, or {!no_parent} *)
  op : string;
  detail : string;
  s_start : float;
  s_node : int;
  s_end : float option; (** [None] if the end event was dropped or never recorded *)
  points : point list; (** in time order *)
}

val spans : t -> span list
(** Reconstructed spans, oldest first; duplicate starts for one id are
    ignored (first wins). Spans whose start was overwritten are not
    returned. *)

type tree = { t_span : span; t_routes : route list; t_children : tree list }

val trees : t -> tree list
(** Causal forest: root spans (no surviving parent) with their child
    spans and the routes they caused, oldest first. *)

(** {2 Chrome trace-event export} *)

val chrome_json : t -> Past_stdext.Json.t
(** The retained events as a Chrome trace-event JSON object
    ([{"traceEvents": [...]}]), loadable in Perfetto / chrome://tracing.
    Spans and routes become async begin/end pairs, hops and points
    become instant events; sim-time maps to microseconds 1:1000. *)
