(* Named, labelled metrics grouped per registry instance. Each
   simulated system owns its own registry (created by its network), so
   two simulations in one process never share counters — the reason
   these are not globals. *)

module Json = Past_stdext.Json
module Text_table = Past_stdext.Text_table

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type key = { k_name : string; k_labels : (string * string) list }

type t = {
  name : string;
  metrics : (key, metric) Hashtbl.t;
  mutable order : key list; (* registration order, newest first *)
  tracer : Trace.t;
  monitors : Monitor.t;
}

let create ?(name = "telemetry") ?trace_capacity () =
  let tracer = Trace.create ?capacity:trace_capacity () in
  let monitors = Monitor.create () in
  Monitor.attach_tracer monitors tracer;
  {
    name;
    metrics = Hashtbl.create 64;
    order = [];
    tracer;
    monitors;
  }

let tracer t = t.tracer
let monitors t = t.monitors

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let find_or_add t ~name ~labels ~kind ~make ~extract =
  let key = { k_name = name; k_labels = normalize_labels labels } in
  match Hashtbl.find_opt t.metrics key with
  | Some m -> (
    match extract m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Registry: metric %S already registered with a different type (%s wanted)"
           name kind))
  | None ->
    let v, m = make () in
    Hashtbl.replace t.metrics key m;
    t.order <- key :: t.order;
    v

let counter t ?(labels = []) name =
  find_or_add t ~name ~labels ~kind:"counter"
    ~make:(fun () ->
      let c = Counter.create () in
      (c, Counter c))
    ~extract:(function Counter c -> Some c | _ -> None)

let gauge t ?(labels = []) name =
  find_or_add t ~name ~labels ~kind:"gauge"
    ~make:(fun () ->
      let g = Gauge.create () in
      (g, Gauge g))
    ~extract:(function Gauge g -> Some g | _ -> None)

let histogram t ?(labels = []) name =
  find_or_add t ~name ~labels ~kind:"histogram"
    ~make:(fun () ->
      let h = Histogram.create () in
      (h, Histogram h))
    ~extract:(function Histogram h -> Some h | _ -> None)

(* --- export ------------------------------------------------------------ *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of Histogram.summary

type item = { i_name : string; i_labels : (string * string) list; i_value : value }

let snapshot t =
  let keys =
    List.sort
      (fun a b ->
        match String.compare a.k_name b.k_name with
        | 0 -> compare a.k_labels b.k_labels
        | c -> c)
      t.order
  in
  List.map
    (fun key ->
      let value =
        match Hashtbl.find t.metrics key with
        | Counter c -> Counter_value (Counter.value c)
        | Gauge g -> Gauge_value (Gauge.value g)
        | Histogram h -> Histogram_value (Histogram.summary h)
      in
      { i_name = key.k_name; i_labels = key.k_labels; i_value = value })
    keys

let labels_to_string labels =
  match labels with
  | [] -> ""
  | _ -> String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let to_table t =
  let table =
    Text_table.create [ "metric"; "labels"; "type"; "value"; "mean"; "p50"; "p90"; "p99"; "max" ]
  in
  (* Trace-ring losses surface as synthetic counter rows, but only once
     events have actually been dropped: loss-free runs keep the exact
     pre-existing schema (the EXP1 golden fixture depends on it). *)
  if Trace.dropped_total t.tracer > 0 then
    List.iter
      (fun (kind, n) ->
        Text_table.add_row table
          [ "trace.dropped_events"; "kind=" ^ kind; "counter"; string_of_int n ])
      (Trace.dropped t.tracer);
  List.iter
    (fun item ->
      let labels = labels_to_string item.i_labels in
      match item.i_value with
      | Counter_value v ->
        Text_table.add_row table [ item.i_name; labels; "counter"; string_of_int v ]
      | Gauge_value v ->
        Text_table.add_row table [ item.i_name; labels; "gauge"; Printf.sprintf "%g" v ]
      | Histogram_value s ->
        Text_table.add_row table
          [
            item.i_name;
            labels;
            "histogram";
            string_of_int s.Histogram.s_count;
            Printf.sprintf "%.2f" s.Histogram.s_mean;
            Printf.sprintf "%.2f" s.Histogram.s_p50;
            Printf.sprintf "%.2f" s.Histogram.s_p90;
            Printf.sprintf "%.2f" s.Histogram.s_p99;
            Printf.sprintf "%.2f" s.Histogram.s_max;
          ])
    (snapshot t);
  table

let to_json t =
  let item_json item =
    let base =
      [ ("name", Json.String item.i_name) ]
      @
      match item.i_labels with
      | [] -> []
      | labels -> [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)) ]
    in
    match item.i_value with
    | Counter_value v -> Json.Obj (base @ [ ("type", Json.String "counter"); ("value", Json.Int v) ])
    | Gauge_value v -> Json.Obj (base @ [ ("type", Json.String "gauge"); ("value", Json.Float v) ])
    | Histogram_value s ->
      Json.Obj
        (base
        @ [
            ("type", Json.String "histogram");
            ("count", Json.Int s.Histogram.s_count);
            ("sum", Json.Float s.Histogram.s_sum);
            ("mean", Json.Float s.Histogram.s_mean);
            ("min", Json.Float s.Histogram.s_min);
            ("max", Json.Float s.Histogram.s_max);
            ("p50", Json.Float s.Histogram.s_p50);
            ("p90", Json.Float s.Histogram.s_p90);
            ("p99", Json.Float s.Histogram.s_p99);
          ])
  in
  let trace_json =
    Json.Obj
      [
        ("total_recorded", Json.Int (Trace.total_recorded t.tracer));
        ("dropped_total", Json.Int (Trace.dropped_total t.tracer));
        ( "dropped",
          Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) (Trace.dropped t.tracer)) );
      ]
  in
  Json.Obj
    [
      ("registry", Json.String t.name);
      ("trace", trace_json);
      ("metrics", Json.List (List.map item_json (snapshot t)));
    ]

let print ?title t =
  Text_table.print ?title (to_table t)
