(* Benchmark-side tracing for the traced run.

   Spans are recorded in memory around every call the benchmark makes
   into a layer (System.create, a [*_sync] call, System.run, a replay
   loop ...). GC work comes from the OCaml runtime's own Runtime_events
   ring of this process: the ring is polled at every span boundary, so
   each runtime phase read at a poll happened inside the innermost span
   open at that moment and is attributed to it as a child. A span's
   self time is its duration minus its child spans and its GC children.

   Aggregates per span name are kept for every span; individual spans
   (and GC children) are kept up to a cap for the span file written at
   the end. With [on = false] every operation is a direct call. *)

module Json = Past_stdext.Json
module Samples = Common.Samples

type open_span = {
  id : int;
  name : string;
  parent : int;
  start : int;  (** ns since the tracer's origin *)
  mutable child_ns : int;
  mutable gc_self : int;  (** GC attributed directly to this span *)
  mutable gc_incl : int;  (** GC anywhere inside it *)
}

type agg = {
  mutable count : int;
  mutable total_ns : int;
  mutable gc_ns : int;  (** GC inside the span, children included *)
  self : Samples.t;  (** per-span self time, ns *)
}

type gc_state = {
  mutable depth : int;
  mutable begin_ns : int;
  mutable phase : string;
}

type t = {
  on : bool;
  origin : int;
  mutable phase : string;  (** aggregates are keyed "phase/name" *)
  mutable next_id : int;
  mutable stack : open_span list;
  aggs : (string, agg) Hashtbl.t;
  mutable kept : Json.t list;
  mutable kept_n : int;
  mutable gc_kept : Json.t list;
  mutable gc_kept_n : int;
  mutable gc_total_ns : int;
  mutable gc_phases : int;
  mutable lost_events : int;
  mutable snapshots : Json.t list;
  gc : gc_state;
  mutable cursor : (Runtime_events.cursor * Runtime_events.Callbacks.t) option;
}

let max_kept = 50_000

let now t = Int64.to_int (Common.now_ns ()) - t.origin

let make on =
  {
    on;
    origin = Int64.to_int (Common.now_ns ());
    phase = "setup";
    next_id = 0;
    stack = [];
    aggs = Hashtbl.create 32;
    kept = [];
    kept_n = 0;
    gc_kept = [];
    gc_kept_n = 0;
    gc_total_ns = 0;
    gc_phases = 0;
    lost_events = 0;
    snapshots = [];
    gc = { depth = 0; begin_ns = 0; phase = "" };
    cursor = None;
  }

let off = make false

(* Attribute one completed outermost runtime phase to the open spans. *)
let gc_done t ~start ~stop =
  let dur = stop - start in
  t.gc_total_ns <- t.gc_total_ns + dur;
  t.gc_phases <- t.gc_phases + 1;
  let parent =
    match t.stack with
    | s :: _ ->
      s.gc_self <- s.gc_self + dur;
      List.iter (fun s -> s.gc_incl <- s.gc_incl + dur) t.stack;
      s.id
    | [] -> -1
  in
  if t.gc_kept_n < max_kept then begin
    t.gc_kept_n <- t.gc_kept_n + 1;
    t.gc_kept <-
      Json.List [ Json.Int parent; Json.String t.gc.phase; Json.Int start; Json.Int dur ]
      :: t.gc_kept
  end

(* Start reading this process's Runtime_events ring. The runtime
   writes its ring file to OCAML_RUNTIME_EVENTS_DIR (run.py points it
   into the benchmark's work directory) and removes it at exit. *)
let create () =
  let t = make true in
  Runtime_events.start ();
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) - t.origin in
  let runtime_begin _ring time phase =
    if t.gc.depth = 0 then begin
      t.gc.begin_ns <- ts time;
      t.gc.phase <- Runtime_events.runtime_phase_name phase
    end;
    t.gc.depth <- t.gc.depth + 1
  in
  let runtime_end _ring time _phase =
    if t.gc.depth > 0 then begin
      t.gc.depth <- t.gc.depth - 1;
      if t.gc.depth = 0 then gc_done t ~start:t.gc.begin_ns ~stop:(ts time)
    end
  in
  let lost_events _ring n = t.lost_events <- t.lost_events + n in
  let callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events () in
  let cursor = Runtime_events.create_cursor None in
  t.cursor <- Some (cursor, callbacks);
  (* Drop whatever the ring holds from before this tracer existed. *)
  ignore (Runtime_events.read_poll cursor callbacks None);
  t.gc_total_ns <- 0;
  t.gc_phases <- 0;
  t.gc_kept <- [];
  t.gc_kept_n <- 0;
  t

let poll t =
  match t.cursor with
  | Some (cursor, callbacks) -> ignore (Runtime_events.read_poll cursor callbacks None)
  | None -> ()

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
    let a = { count = 0; total_ns = 0; gc_ns = 0; self = Samples.create () } in
    Hashtbl.replace t.aggs name a;
    a

let close t s =
  let dur = now t - s.start in
  (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
  (match t.stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
  let a = agg t (t.phase ^ "/" ^ s.name) in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.gc_ns <- a.gc_ns + s.gc_incl;
  Samples.add a.self (float_of_int (dur - s.child_ns - s.gc_self));
  if t.kept_n < max_kept then begin
    t.kept_n <- t.kept_n + 1;
    t.kept <-
      Json.List
        [
          Json.Int s.id;
          Json.Int s.parent;
          Json.String s.name;
          Json.Int s.start;
          Json.Int dur;
          Json.Int s.gc_self;
          Json.Int s.gc_incl;
        ]
      :: t.kept
  end

(* [span t name f] runs [f ()] inside a span named [name]. *)
let span t name f =
  if not t.on then f ()
  else begin
    poll t;
    let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = t.next_id; name; parent; start = now t; child_ns = 0; gc_self = 0; gc_incl = 0 }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- s :: t.stack;
    match f () with
    | v ->
      poll t;
      close t s;
      v
    | exception e ->
      poll t;
      close t s;
      raise e
  end

(* Run [f] as the root span of phase [name]: spans inside it aggregate
   under "name/...". *)
let phase t name f =
  t.phase <- name;
  span t name f

(* Record a named set of counter values (a phase boundary). *)
let snapshot t ~phase (values : (string * Json.t) list) =
  if t.on then
    t.snapshots <-
      Json.Obj [ ("phase", Json.String phase); ("values", Json.Obj values) ] :: t.snapshots

(* Lookups take "phase/name" keys. *)
let find t key = Hashtbl.find_opt t.aggs key

(* Median self time of the spans named [name], in µs (0 if none ran). *)
let self_p50_us t name =
  match find t name with
  | Some a when Samples.count a.self > 0 -> Samples.percentile a.self 0.5 /. 1e3
  | _ -> 0.0

(* Mean duration of the spans named [name], in µs (0 if none ran). *)
let mean_us t name =
  match find t name with
  | Some a when a.count > 0 -> float_of_int a.total_ns /. float_of_int a.count /. 1e3
  | _ -> 0.0

let total_s t name =
  match find t name with Some a -> float_of_int a.total_ns /. 1e9 | None -> 0.0

(* Sum over spans named [name] of (duration - GC inside - child spans):
   [self] already excludes child spans and the span's own GC children. *)
let self_total_ns t name =
  match find t name with
  | Some a ->
    let s = ref 0.0 in
    for i = 0 to Samples.count a.self - 1 do
      s := !s +. a.self.Samples.data.(i)
    done;
    !s
  | None -> 0.0

let gc_inside_s t name =
  match find t name with Some a -> float_of_int a.gc_ns /. 1e9 | None -> 0.0

let to_json t ~header =
  let aggs =
    Hashtbl.fold
      (fun name a acc ->
        ( name,
          Json.Obj
            [
              ("count", Json.Int a.count);
              ("total_ns", Json.Int a.total_ns);
              ("gc_ns", Json.Int a.gc_ns);
              ("self_p50_ns", Json.Float (Samples.percentile a.self 0.5));
            ] )
        :: acc)
      t.aggs []
    |> List.sort compare
  in
  Json.Obj
    (header
    @ [
        ( "span_fields",
          Json.List
            (List.map (fun s -> Json.String s)
               [ "id"; "parent"; "name"; "start_ns"; "dur_ns"; "gc_self_ns"; "gc_incl_ns" ]) );
        ("spans", Json.List (List.rev t.kept));
        ("spans_total", Json.Int t.next_id);
        ("gc_fields", Json.List (List.map (fun s -> Json.String s) [ "parent"; "phase"; "start_ns"; "dur_ns" ]));
        ("gc", Json.List (List.rev t.gc_kept));
        ("gc_phases_total", Json.Int t.gc_phases);
        ("gc_total_ns", Json.Int t.gc_total_ns);
        ("lost_events", Json.Int t.lost_events);
        ("aggregates", Json.Obj aggs);
        ("snapshots", Json.List (List.rev t.snapshots));
      ])
