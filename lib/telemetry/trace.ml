(* Structured trace events in a bounded ring: recording is O(1) and the
   memory cost is fixed, so tracing can stay on during large runs. When
   the ring wraps, the overwritten event's kind is counted so exports
   can flag truncated traces. The reconstruction helpers rebuild
   complete lookup paths (routes) and operation causal trees (spans)
   from the retained events. *)

module Json = Past_stdext.Json

type stage = Leaf_set | Routing_table | Rare_case | Local

let stage_name = function
  | Leaf_set -> "leaf-set"
  | Routing_table -> "routing-table"
  | Rare_case -> "rare-case"
  | Local -> "local"

let no_parent = -1

type event_kind =
  | Route_start of { route : int; parent : int; key : string }
  | Route_hop of { route : int; seq : int; from_ : int; to_ : int; stage : stage }
  | Route_deliver of { route : int; hops : int; stage : stage }
  | Span_start of { span : int; parent : int; op : string; detail : string }
  | Span_end of { span : int; note : string }
  | Point of { span : int; name : string }
  | Note of string

type event = { time : float; node : int; kind : event_kind }

(* Drop accounting is indexed by a dense kind tag. *)
let kind_count = 7

let kind_index = function
  | Route_start _ -> 0
  | Route_hop _ -> 1
  | Route_deliver _ -> 2
  | Span_start _ -> 3
  | Span_end _ -> 4
  | Point _ -> 5
  | Note _ -> 6

let kind_name_of_index = function
  | 0 -> "route_start"
  | 1 -> "route_hop"
  | 2 -> "route_deliver"
  | 3 -> "span_start"
  | 4 -> "span_end"
  | 5 -> "point"
  | _ -> "note"

type t = {
  capacity : int;
  ring : event array;
  mutable next : int; (* slot for the next write *)
  mutable total : int; (* events ever recorded *)
  mutable next_id : int; (* route/span id sequence *)
  dropped_by_kind : int array;
  mutable dropped_sum : int;
}

let dummy = { time = 0.0; node = -1; kind = Note "" }

let create ?(capacity = 4096) () =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  {
    capacity;
    ring = Array.make (Stdlib.max 1 capacity) dummy;
    next = 0;
    total = 0;
    next_id = 0;
    dropped_by_kind = Array.make kind_count 0;
    dropped_sum = 0;
  }

let enabled t = t.capacity > 0

let record t ~time ~node kind =
  if t.capacity > 0 then begin
    if t.total >= t.capacity then begin
      (* The slot holds a still-retained event about to be lost. *)
      let old = t.ring.(t.next) in
      let i = kind_index old.kind in
      t.dropped_by_kind.(i) <- t.dropped_by_kind.(i) + 1;
      t.dropped_sum <- t.dropped_sum + 1
    end;
    t.ring.(t.next) <- { time; node; kind };
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1
  end

let new_route_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let new_span_id = new_route_id
let total_recorded t = t.total
let dropped_total t = t.dropped_sum

let dropped t =
  let out = ref [] in
  for i = kind_count - 1 downto 0 do
    let n = t.dropped_by_kind.(i) in
    if n > 0 then out := (kind_name_of_index i, n) :: !out
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

(* Retained events, oldest first. *)
let events t =
  if t.capacity = 0 || t.total = 0 then []
  else begin
    let kept = Stdlib.min t.total t.capacity in
    let start = (t.next - kept + t.capacity) mod t.capacity in
    List.init kept (fun i -> t.ring.((start + i) mod t.capacity))
  end

(* --- route reconstruction --------------------------------------------- *)

type hop = { h_time : float; h_from : int; h_to : int; h_stage : stage }

type route = {
  route_id : int;
  parent : int;
  key : string;
  origin : int;
  started : float;
  hops : hop list; (* in forwarding order *)
  delivered_at : int; (* node that accepted the message *)
  delivered_time : float;
  delivered_stage : stage;
}

type partial = {
  mutable p_key : string option;
  mutable p_parent : int;
  mutable p_origin : int;
  mutable p_started : float;
  mutable p_hops : (int * hop) list; (* seq-tagged, unordered *)
  mutable p_deliver : (int * float * stage) option;
}

(* Sort seq-tagged hops into forwarding order and drop duplicate seqs
   (fault injection can deliver the same hop message twice; the first
   recording wins so hop counts stay honest). *)
let dedup_hops tagged =
  let sorted =
    List.stable_sort
      (fun (a, (ha : hop)) (b, hb) ->
        match compare (a : int) b with 0 -> Float.compare ha.h_time hb.h_time | c -> c)
      tagged
  in
  let rec keep_first = function
    | [] -> []
    | [ (_, h) ] -> [ h ]
    | (s1, h1) :: ((s2, _) :: _ as rest) ->
      if s1 = s2 then keep_first ((s1, h1) :: List.tl rest) else h1 :: keep_first rest
  in
  keep_first sorted

let routes t =
  let by_route : (int, partial) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let partial route =
    match Hashtbl.find_opt by_route route with
    | Some p -> p
    | None ->
      let p =
        {
          p_key = None;
          p_parent = no_parent;
          p_origin = -1;
          p_started = 0.0;
          p_hops = [];
          p_deliver = None;
        }
      in
      Hashtbl.replace by_route route p;
      order := route :: !order;
      p
  in
  List.iter
    (fun e ->
      match e.kind with
      | Route_start { route; parent; key } ->
        let p = partial route in
        if p.p_key = None then begin
          p.p_key <- Some key;
          p.p_parent <- parent;
          p.p_origin <- e.node;
          p.p_started <- e.time
        end
      | Route_hop { route; seq; from_; to_; stage } ->
        let p = partial route in
        p.p_hops <-
          (seq, { h_time = e.time; h_from = from_; h_to = to_; h_stage = stage }) :: p.p_hops
      | Route_deliver { route; hops = _; stage } ->
        let p = partial route in
        if p.p_deliver = None then p.p_deliver <- Some (e.node, e.time, stage)
      | Span_start _ | Span_end _ | Point _ | Note _ -> ())
    (events t);
  (* Only routes whose start and delivery both survived in the ring are
     complete enough to reconstruct. *)
  List.rev !order
  |> List.filter_map (fun route_id ->
         let p = Hashtbl.find by_route route_id in
         match (p.p_key, p.p_deliver) with
         | Some key, Some (delivered_at, delivered_time, delivered_stage) ->
           Some
             {
               route_id;
               parent = p.p_parent;
               key;
               origin = p.p_origin;
               started = p.p_started;
               hops = dedup_hops (List.rev p.p_hops);
               delivered_at;
               delivered_time;
               delivered_stage;
             }
         | _ -> None)

let pp_route ppf r =
  Format.fprintf ppf "route %d: key %s from node@%d (t=%.1f)@," r.route_id r.key r.origin
    r.started;
  List.iteri
    (fun i h ->
      Format.fprintf ppf "  hop %d: node@%d -> node@%d via %s (t=%.1f)@," (i + 1) h.h_from h.h_to
        (stage_name h.h_stage) h.h_time)
    r.hops;
  Format.fprintf ppf "  delivered at node@%d via %s after %d hop(s) (t=%.1f)" r.delivered_at
    (stage_name r.delivered_stage) (List.length r.hops) r.delivered_time

let route_to_string r = Format.asprintf "@[<v>%a@]" pp_route r

(* --- span reconstruction ----------------------------------------------- *)

type point = { pt_time : float; pt_node : int; pt_name : string; pt_count : int }

type span = {
  span_id : int;
  span_parent : int;
  op : string;
  detail : string;
  s_start : float;
  s_node : int;
  s_end : float option;
  points : point list;
}

type span_partial = {
  mutable sp_started : bool;
  mutable sp_parent : int;
  mutable sp_op : string;
  mutable sp_detail : string;
  mutable sp_start : float;
  mutable sp_node : int;
  mutable sp_end : float option;
  mutable sp_points : point list; (* newest first *)
}

let spans t =
  let by_span : (int, span_partial) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let partial span =
    match Hashtbl.find_opt by_span span with
    | Some p -> p
    | None ->
      let p =
        {
          sp_started = false;
          sp_parent = no_parent;
          sp_op = "";
          sp_detail = "";
          sp_start = 0.0;
          sp_node = -1;
          sp_end = None;
          sp_points = [];
        }
      in
      Hashtbl.replace by_span span p;
      order := span :: !order;
      p
  in
  List.iter
    (fun e ->
      match e.kind with
      | Span_start { span; parent; op; detail } ->
        let p = partial span in
        (* Duplicate starts (fault-injected message replays) keep the
           first recording. *)
        if not p.sp_started then begin
          p.sp_started <- true;
          p.sp_parent <- parent;
          p.sp_op <- op;
          p.sp_detail <- detail;
          p.sp_start <- e.time;
          p.sp_node <- e.node
        end
      | Span_end { span; note = _ } ->
        let p = partial span in
        if p.sp_end = None then p.sp_end <- Some e.time
      | Point { span; name } ->
        let p = partial span in
        let merged = ref false in
        p.sp_points <-
          List.map
            (fun pt ->
              if (not !merged) && pt.pt_name = name && pt.pt_node = e.node then begin
                merged := true;
                { pt with pt_count = pt.pt_count + 1 }
              end
              else pt)
            p.sp_points;
        if not !merged then
          p.sp_points <-
            { pt_time = e.time; pt_node = e.node; pt_name = name; pt_count = 1 } :: p.sp_points
      | Route_start _ | Route_hop _ | Route_deliver _ | Note _ -> ())
    (events t);
  List.rev !order
  |> List.filter_map (fun span_id ->
         let p = Hashtbl.find by_span span_id in
         if not p.sp_started then None
         else
           Some
             {
               span_id;
               span_parent = p.sp_parent;
               op = p.sp_op;
               detail = p.sp_detail;
               s_start = p.sp_start;
               s_node = p.sp_node;
               s_end = p.sp_end;
               points = List.rev p.sp_points;
             })

type tree = { t_span : span; t_routes : route list; t_children : tree list }

let trees t =
  let all_spans = spans t in
  let all_routes = routes t in
  let span_ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace span_ids s.span_id ()) all_spans;
  let routes_of : (int, route list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if Hashtbl.mem span_ids r.parent then
        Hashtbl.replace routes_of r.parent
          (r :: (Option.value ~default:[] (Hashtbl.find_opt routes_of r.parent))))
    all_routes;
  let children_of : (int, span list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if Hashtbl.mem span_ids s.span_parent then
        Hashtbl.replace children_of s.span_parent
          (s :: (Option.value ~default:[] (Hashtbl.find_opt children_of s.span_parent))))
    all_spans;
  let rec build s =
    {
      t_span = s;
      t_routes = List.rev (Option.value ~default:[] (Hashtbl.find_opt routes_of s.span_id));
      t_children =
        List.rev_map build (Option.value ~default:[] (Hashtbl.find_opt children_of s.span_id));
    }
  in
  (* Roots: spans whose parent did not survive (or never existed). *)
  List.filter (fun s -> not (Hashtbl.mem span_ids s.span_parent)) all_spans
  |> List.map build

(* --- Chrome trace-event export ----------------------------------------- *)

(* Sim time is dimensionless; map 1 sim unit to 1 ms (ts is in us). *)
let ts time = Json.Float (time *. 1000.0)

let chrome_json t =
  let evs = ref [] in
  let push e = evs := e :: !evs in
  let async ~name ~cat ~id ~tid ~t0 ~t1 ~args =
    let base extra =
      Json.Obj
        ([
           ("name", Json.String name);
           ("cat", Json.String cat);
           ("id", Json.Int id);
           ("pid", Json.Int 1);
           ("tid", Json.Int tid);
         ]
        @ extra)
    in
    push (base [ ("ph", Json.String "b"); ("ts", ts t0); ("args", Json.Obj args) ]);
    push (base [ ("ph", Json.String "e"); ("ts", ts t1) ])
  in
  let instant ~name ~cat ~tid ~time ~args =
    push
      (Json.Obj
         [
           ("name", Json.String name);
           ("cat", Json.String cat);
           ("ph", Json.String "i");
           ("s", Json.String "t");
           ("ts", ts time);
           ("pid", Json.Int 1);
           ("tid", Json.Int tid);
           ("args", Json.Obj args);
         ])
  in
  let last_time = List.fold_left (fun acc e -> Float.max acc e.time) 0.0 (events t) in
  List.iter
    (fun (s : span) ->
      let t1 = match s.s_end with Some e -> e | None -> last_time in
      async
        ~name:(if s.op = "" then "span" else s.op)
        ~cat:"op" ~id:s.span_id ~tid:s.s_node ~t0:s.s_start ~t1
        ~args:
          ([ ("span", Json.Int s.span_id); ("parent", Json.Int s.span_parent) ]
          @ (if s.detail = "" then [] else [ ("detail", Json.String s.detail) ])
          @ if s.s_end = None then [ ("truncated", Json.Bool true) ] else []);
      List.iter
        (fun (p : point) ->
          instant ~name:p.pt_name ~cat:"point" ~tid:p.pt_node ~time:p.pt_time
            ~args:
              ([ ("span", Json.Int s.span_id) ]
              @ if p.pt_count > 1 then [ ("count", Json.Int p.pt_count) ] else []))
        s.points)
    (spans t);
  List.iter
    (fun (r : route) ->
      async ~name:("route " ^ r.key) ~cat:"route" ~id:r.route_id ~tid:r.origin ~t0:r.started
        ~t1:r.delivered_time
        ~args:
          [
            ("route", Json.Int r.route_id);
            ("parent", Json.Int r.parent);
            ("key", Json.String r.key);
            ("hops", Json.Int (List.length r.hops));
            ("delivered_at", Json.Int r.delivered_at);
          ];
      List.iter
        (fun (h : hop) ->
          instant
            ~name:("hop " ^ stage_name h.h_stage)
            ~cat:"hop" ~tid:h.h_from ~time:h.h_time
            ~args:[ ("route", Json.Int r.route_id); ("to", Json.Int h.h_to) ])
        r.hops)
    (routes t);
  let meta =
    Json.Obj
      ([
         ("total_recorded", Json.Int (total_recorded t));
         ("dropped_total", Json.Int (dropped_total t));
       ]
      @
      match dropped t with
      | [] -> []
      | d -> [ ("dropped", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) d)) ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !evs));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", meta);
    ]
