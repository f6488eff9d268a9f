(* Structured trace events in a bounded ring: recording is O(1) and the
   memory cost is fixed, so tracing can stay on during large runs. When
   the ring wraps, the overwritten event's kind is counted so exports
   can flag truncated traces. One fold rebuilds every span (an
   operation, or a routed message with its hops) from the retained
   events; routes, operation spans and the causal forest are views of
   that one reconstruction. *)

module Json = Past_stdext.Json

type stage = Leaf_set | Routing_table | Rare_case | Local

let stage_name = function
  | Leaf_set -> "leaf-set"
  | Routing_table -> "routing-table"
  | Rare_case -> "rare-case"
  | Local -> "local"

let no_parent = -1

type event_kind =
  | Span_start of { span : int; parent : int; op : string; detail : string }
  | Hop of { span : int; seq : int; to_ : int; stage : stage }
  | Point of { span : int; name : string }
  | Span_end of { span : int; note : string }

type event = { time : float; node : int; kind : event_kind }

(* Drop accounting is indexed by a dense kind tag. *)
let kind_names = [| "span_start"; "hop"; "point"; "span_end" |]

let stage_index = function Leaf_set -> 0 | Routing_table -> 1 | Rare_case -> 2 | Local -> 3
let stages = [| Leaf_set; Routing_table; Rare_case; Local |]

(* The ring is columnar: slot i of each array holds one field of the
   i-th retained event, so recording writes unboxed floats and ints in
   place and allocates nothing. A ring of fresh event records would
   promote every event once the ring is older than the minor heap. The
   [a]/[b]/[c] and [s]/[d] columns hold the kind's own fields:
   - Span_start: a = parent, s = op, d = detail;
   - Hop: a = seq, b = to_, c = stage;
   - Point: s = name;
   - Span_end: s = note.
   Unused cells keep whatever an older event left there. *)
type t = {
  capacity : int;
  times : float array;
  nodes : int array;
  tags : int array; (* index into [kind_names] *)
  spans : int array;
  a : int array;
  b : int array;
  c : int array;
  s : string array;
  d : string array;
  mutable next : int; (* slot for the next write *)
  mutable total : int; (* events ever recorded *)
  mutable next_id : int; (* span id sequence *)
  dropped_by_kind : int array;
  mutable dropped_sum : int;
}

let create ?(capacity = 4096) () =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  let cells = Stdlib.max 1 capacity in
  let ints () = Array.make cells 0 in
  {
    capacity;
    times = Array.make cells 0.0;
    nodes = ints ();
    tags = ints ();
    spans = ints ();
    a = ints ();
    b = ints ();
    c = ints ();
    s = Array.make cells "";
    d = Array.make cells "";
    next = 0;
    total = 0;
    next_id = 0;
    dropped_by_kind = Array.make (Array.length kind_names) 0;
    dropped_sum = 0;
  }

let enabled t = t.capacity > 0

let record t ~time ~node kind =
  if t.capacity > 0 then begin
    let i = t.next in
    if t.total >= t.capacity then begin
      (* The slot holds a still-retained event about to be lost. *)
      let k = t.tags.(i) in
      t.dropped_by_kind.(k) <- t.dropped_by_kind.(k) + 1;
      t.dropped_sum <- t.dropped_sum + 1
    end;
    t.times.(i) <- time;
    t.nodes.(i) <- node;
    (match kind with
    | Span_start { span; parent; op; detail } ->
      t.tags.(i) <- 0;
      t.spans.(i) <- span;
      t.a.(i) <- parent;
      t.s.(i) <- op;
      t.d.(i) <- detail
    | Hop { span; seq; to_; stage } ->
      t.tags.(i) <- 1;
      t.spans.(i) <- span;
      t.a.(i) <- seq;
      t.b.(i) <- to_;
      t.c.(i) <- stage_index stage
    | Point { span; name } ->
      t.tags.(i) <- 2;
      t.spans.(i) <- span;
      t.s.(i) <- name
    | Span_end { span; note } ->
      t.tags.(i) <- 3;
      t.spans.(i) <- span;
      t.s.(i) <- note);
    t.next <- (i + 1) mod t.capacity;
    t.total <- t.total + 1
  end

(* The id is minted whether or not the ring records: minting draws no
   randomness and branches nothing, so turning tracing on never changes
   a run, and a traced run numbers its spans the same way every time. *)
let start_span t ~time ~node ~parent ~op detail =
  let span = t.next_id in
  t.next_id <- span + 1;
  record t ~time ~node (Span_start { span; parent; op; detail });
  span

let total_recorded t = t.total
let dropped_total t = t.dropped_sum

let dropped t =
  Array.to_list (Array.mapi (fun i n -> (kind_names.(i), n)) t.dropped_by_kind)
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let event_at t i =
  let span = t.spans.(i) in
  let kind =
    match t.tags.(i) with
    | 0 -> Span_start { span; parent = t.a.(i); op = t.s.(i); detail = t.d.(i) }
    | 1 -> Hop { span; seq = t.a.(i); to_ = t.b.(i); stage = stages.(t.c.(i)) }
    | 2 -> Point { span; name = t.s.(i) }
    | _ -> Span_end { span; note = t.s.(i) }
  in
  { time = t.times.(i); node = t.nodes.(i); kind }

(* Retained events, oldest first. *)
let events t =
  if t.capacity = 0 || t.total = 0 then []
  else begin
    let kept = Stdlib.min t.total t.capacity in
    let start = (t.next - kept + t.capacity) mod t.capacity in
    List.init kept (fun i -> event_at t ((start + i) mod t.capacity))
  end

(* --- reconstruction ------------------------------------------------------ *)

type hop = { h_time : float; h_from : int; h_to : int; h_stage : stage }
type point = { pt_time : float; pt_node : int; pt_name : string; pt_count : int }

type span = {
  span_id : int;
  span_parent : int;
  op : string;
  detail : string;
  s_start : float;
  s_node : int;
  s_end : float option;
  end_node : int;
  note : string;
  hops : hop list;
  points : point list;
}

let route_op = "route"

(* The events of one span id seen so far. *)
type partial = {
  mutable start : event option; (* first Span_start *)
  mutable finish : event option; (* first Span_end *)
  mutable seq_hops : (int * hop) list; (* one per seq, newest first *)
  mutable rev_points : point list; (* one per (name, node), newest first *)
}

(* Duplicate starts and ends keep the first recording, and a hop
   recorded twice under one seq keeps the first: fault injection can
   deliver one message twice, and hop counts must stay honest. *)
let add p e =
  match e.kind with
  | Span_start _ -> if p.start = None then p.start <- Some e
  | Span_end _ -> if p.finish = None then p.finish <- Some e
  | Hop { seq; to_; stage; _ } ->
    if not (List.mem_assoc seq p.seq_hops) then
      p.seq_hops <-
        (seq, { h_time = e.time; h_from = e.node; h_to = to_; h_stage = stage }) :: p.seq_hops
  | Point { name; _ } ->
    let same pt = pt.pt_name = name && pt.pt_node = e.node in
    p.rev_points <-
      (if List.exists same p.rev_points then
         List.map
           (fun pt -> if same pt then { pt with pt_count = pt.pt_count + 1 } else pt)
           p.rev_points
       else { pt_time = e.time; pt_node = e.node; pt_name = name; pt_count = 1 } :: p.rev_points)

let span_of_event = function
  | Span_start { span; _ } | Hop { span; _ } | Point { span; _ } | Span_end { span; _ } -> span

(* Every span whose start survived, in order of its first retained
   event. *)
let reconstruct t =
  let by_id : (int, partial) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun e ->
      let id = span_of_event e.kind in
      let p =
        match Hashtbl.find_opt by_id id with
        | Some p -> p
        | None ->
          let p = { start = None; finish = None; seq_hops = []; rev_points = [] } in
          Hashtbl.replace by_id id p;
          order := id :: !order;
          p
      in
      add p e)
    (events t);
  List.rev !order
  |> List.filter_map (fun span_id ->
         let p = Hashtbl.find by_id span_id in
         match p.start with
         | Some { time; node; kind = Span_start { parent; op; detail; _ } } ->
           let s_end, end_node, note =
             match p.finish with
             | Some { time; node; kind = Span_end { note; _ } } -> (Some time, node, note)
             | _ -> (None, -1, "")
           in
           Some
             {
               span_id;
               span_parent = parent;
               op;
               detail;
               s_start = time;
               s_node = node;
               s_end;
               end_node;
               note;
               hops = List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) p.seq_hops);
               points = List.rev p.rev_points;
             }
         | _ -> None)

let is_route s = s.op = route_op
let routes t = List.filter (fun s -> is_route s && s.s_end <> None) (reconstruct t)
let spans t = List.filter (fun s -> not (is_route s)) (reconstruct t)

let pp_route ppf r =
  Format.fprintf ppf "route %d: key %s from node@%d (t=%.1f)@," r.span_id r.detail r.s_node
    r.s_start;
  List.iteri
    (fun i h ->
      Format.fprintf ppf "  hop %d: node@%d -> node@%d via %s (t=%.1f)@," (i + 1) h.h_from h.h_to
        (stage_name h.h_stage) h.h_time)
    r.hops;
  Format.fprintf ppf "  delivered at node@%d via %s after %d hop(s) (t=%.1f)" r.end_node r.note
    (List.length r.hops)
    (Option.value ~default:nan r.s_end)

let route_to_string r = Format.asprintf "@[<v>%a@]" pp_route r

type tree = { t_span : span; t_children : tree list }

let trees t =
  let all = reconstruct t in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.span_id ()) all;
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if Hashtbl.mem ids s.span_parent then Hashtbl.add children s.span_parent s)
    all;
  (* [find_all] lists the newest binding first. *)
  let rec build s =
    { t_span = s; t_children = List.rev_map build (Hashtbl.find_all children s.span_id) }
  in
  (* Roots: spans whose parent did not survive (or never existed). *)
  List.filter (fun s -> not (Hashtbl.mem ids s.span_parent)) all |> List.map build

(* --- Chrome trace-event export ----------------------------------------- *)

(* Sim time is dimensionless; map 1 sim unit to 1 ms (ts is in us). *)
let ts time = Json.Float (time *. 1000.0)

let chrome_json t =
  let evs = ref [] in
  let push fields = evs := Json.Obj fields :: !evs in
  let last_time = List.fold_left (fun acc e -> Float.max acc e.time) 0.0 (events t) in
  (* A span is an async begin/end pair and its hops and points are
     instants; a route names itself by its key and reports its hop
     count and delivery node. *)
  let export s =
    let route = is_route s in
    let id_arg = ((if route then "route" else "span"), Json.Int s.span_id) in
    let name, cat, args =
      if route then
        ( "route " ^ s.detail,
          "route",
          [ ("key", Json.String s.detail); ("hops", Json.Int (List.length s.hops)) ]
          @ if s.s_end = None then [] else [ ("delivered_at", Json.Int s.end_node) ] )
      else
        ( (if s.op = "" then "span" else s.op),
          "op",
          if s.detail = "" then [] else [ ("detail", Json.String s.detail) ] )
    in
    let base =
      [
        ("name", Json.String name);
        ("cat", Json.String cat);
        ("id", Json.Int s.span_id);
        ("pid", Json.Int 1);
        ("tid", Json.Int s.s_node);
      ]
    in
    push
      (base
      @ [
          ("ph", Json.String "b");
          ("ts", ts s.s_start);
          ( "args",
            Json.Obj
              ((id_arg :: ("parent", Json.Int s.span_parent) :: args)
              @ if s.s_end = None then [ ("truncated", Json.Bool true) ] else []) );
        ]);
    push (base @ [ ("ph", Json.String "e"); ("ts", ts (Option.value ~default:last_time s.s_end)) ]);
    let instant ~name ~cat ~tid ~time ~args =
      push
        [
          ("name", Json.String name);
          ("cat", Json.String cat);
          ("ph", Json.String "i");
          ("s", Json.String "t");
          ("ts", ts time);
          ("pid", Json.Int 1);
          ("tid", Json.Int tid);
          ("args", Json.Obj (id_arg :: args));
        ]
    in
    List.iter
      (fun p ->
        instant ~name:p.pt_name ~cat:"point" ~tid:p.pt_node ~time:p.pt_time
          ~args:(if p.pt_count > 1 then [ ("count", Json.Int p.pt_count) ] else []))
      s.points;
    List.iter
      (fun h ->
        instant
          ~name:("hop " ^ stage_name h.h_stage)
          ~cat:"hop" ~tid:h.h_from ~time:h.h_time
          ~args:[ ("to", Json.Int h.h_to) ])
      s.hops
  in
  (* Operation spans first, then routes. *)
  let routes, ops = List.partition is_route (reconstruct t) in
  List.iter export ops;
  List.iter export routes;
  let meta =
    [
      ("total_recorded", Json.Int (total_recorded t));
      ("dropped_total", Json.Int (dropped_total t));
    ]
    @
    match dropped t with
    | [] -> []
    | d -> [ ("dropped", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) d)) ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !evs));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj meta);
    ]
