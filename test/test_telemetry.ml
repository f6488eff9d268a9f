module Counter = Past_telemetry.Counter
module Histogram = Past_telemetry.Histogram
module Registry = Past_telemetry.Registry
module Trace = Past_telemetry.Trace
module Stats = Past_stdext.Stats
module Rng = Past_stdext.Rng

let check = Alcotest.check

let string_member key obj =
  match Past_stdext.Json.member key obj with Some (Past_stdext.Json.String s) -> Some s | _ -> None
let ( => ) name f = Alcotest.test_case name `Quick f

let counter_semantics () =
  let c = Counter.create () in
  check Alcotest.int "starts at zero" 0 (Counter.value c);
  Counter.incr c;
  Counter.incr c;
  check Alcotest.int "incr" 2 (Counter.value c)

(* Below reservoir capacity the histogram keeps every sample, so its
   ceil-rank percentiles must agree exactly with Stats (which keeps the
   full sample list). *)
let histogram_matches_stats () =
  let h = Histogram.create () in
  let s = Stats.create () in
  let rng = Rng.create 42 in
  for _ = 1 to 500 do
    let v = Rng.float rng 100.0 in
    Histogram.observe h v;
    Stats.add s v
  done;
  check Alcotest.int "count" 500 (Histogram.count h);
  check (Alcotest.float 1e-9) "mean" (Stats.mean s) (Histogram.mean h);
  check (Alcotest.float 1e-9) "min" (Stats.min s) (Histogram.min h);
  check (Alcotest.float 1e-9) "max" (Stats.max s) (Histogram.max h);
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "p%g" p)
        (Stats.percentile s p) (Histogram.percentile h p))
    [ 0.0; 50.0; 90.0; 99.0; 100.0 ];
  Histogram.reset h;
  check Alcotest.int "reset count" 0 (Histogram.count h);
  check (Alcotest.float 1e-9) "reset percentile" 0.0 (Histogram.percentile h 50.0)

(* Past capacity: count/sum/min/max stay exact while percentiles come
   from the bounded reservoir — they must stay within the observed
   range and roughly in place for a uniform stream. *)
let histogram_reservoir_bounded () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.observe_int h i
  done;
  check Alcotest.int "exact count" 10_000 (Histogram.count h);
  check (Alcotest.float 1e-9) "exact min" 1.0 (Histogram.min h);
  check (Alcotest.float 1e-9) "exact max" 10_000.0 (Histogram.max h);
  let p50 = Histogram.percentile h 50.0 in
  check Alcotest.bool "p50 within range" true (p50 >= 1.0 && p50 <= 10_000.0);
  check Alcotest.bool "p50 roughly central" true (p50 > 2_000.0 && p50 < 8_000.0)

let registry_get_or_create () =
  let reg = Registry.create ~name:"t" () in
  let a = Registry.counter reg "x" in
  let b = Registry.counter reg "x" in
  Counter.incr a;
  check Alcotest.int "same instance" 1 (Counter.value b);
  (* Label order does not matter. *)
  let l1 = Registry.counter reg ~labels:[ ("p", "1"); ("q", "2") ] "y" in
  let l2 = Registry.counter reg ~labels:[ ("q", "2"); ("p", "1") ] "y" in
  Counter.incr l1;
  check Alcotest.int "labels sorted" 1 (Counter.value l2);
  (* Same name as a different metric type is an error. *)
  (match Registry.histogram reg "x" with
  | _ -> Alcotest.fail "type mismatch accepted"
  | exception Invalid_argument _ -> ());
  ignore (Registry.histogram reg "h");
  check Alcotest.int "snapshot size" 3 (List.length (Registry.snapshot reg))

(* Two systems created side by side must never share a counter: all
   metrics live in the per-system registry, not in globals. *)
let registry_isolation_between_systems () =
  let module System = Past_core.System in
  let module Client = Past_core.Client in
  let mk seed = System.create ~seed ~n:10 ~node_capacity:(fun _ _ -> 100_000) () in
  let sys1 = mk 101 in
  let sys2 = mk 202 in
  let accepted sys = Counter.value (Registry.counter (System.registry sys) "past.insert.accepted") in
  let sent sys = Counter.value (Registry.counter (System.registry sys) "net.sent") in
  let base2_sent = sent sys2 in
  let client = System.new_client sys1 ~quota:1_000_000 () in
  (match Client.insert_sync client ~name:"f" ~data:(String.make 512 'a') ~k:3 () with
  | Client.Inserted _ -> ()
  | Client.Insert_failed { reason; _ } -> Alcotest.failf "insert failed: %s" reason);
  check Alcotest.bool "sys1 accepted replicas" true (accepted sys1 > 0);
  check Alcotest.int "sys2 storage counters untouched" 0 (accepted sys2);
  check Alcotest.int "sys2 network counters untouched" base2_sent (sent sys2)

let assert_route_invariants (r : Trace.span) =
  (match r.Trace.hops with
  | [] -> ()
  | first :: _ -> check Alcotest.int "first hop leaves origin" r.Trace.s_node first.Trace.h_from);
  ignore
    (List.fold_left
       (fun prev (h : Trace.hop) ->
         (match prev with
         | Some (p : Trace.hop) -> check Alcotest.int "hops chain" p.Trace.h_to h.Trace.h_from
         | None -> ());
         Some h)
       None r.Trace.hops);
  match List.rev r.Trace.hops with
  | last :: _ ->
    check Alcotest.int "delivery node is last hop target" last.Trace.h_to r.Trace.end_node
  | [] -> check Alcotest.int "zero-hop route delivers at origin" r.Trace.s_node r.Trace.end_node

(* Route every trace event through a real (small) overlay and check the
   reconstruction invariants: every complete route starts at its origin,
   chains hop to hop, and is delivered at its last hop's target. *)
let route_trace_reconstruction () =
  let module Overlay = Past_pastry.Overlay in
  let overlay : Past_experiments.Harness.probe Overlay.t = Overlay.create ~seed:55 () in
  Overlay.build_static overlay ~n:60;
  let stats = Past_experiments.Harness.random_lookups overlay ~lookups:40 in
  check Alcotest.int "all delivered" 40 stats.Past_experiments.Harness.delivered;
  let routes = Trace.routes (Registry.tracer (Overlay.registry overlay)) in
  check Alcotest.bool "routes reconstructed" true (List.length routes > 0);
  List.iter assert_route_invariants routes;
  (* Trace ring wraps without losing count. *)
  let tr = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.record tr ~time:(float_of_int i) ~node:0 (Trace.Point { span = 0; name = "n" })
  done;
  check Alcotest.int "ring keeps capacity" 8 (List.length (Trace.events tr));
  check Alcotest.int "total counts overwritten" 20 (Trace.total_recorded tr)

(* Satellite smoke test: the full report pipeline at scale 0.05 must
   emit JSON that round-trips through our parser with one object per
   experiment, each carrying its titled tables. *)
let report_json_smoke () =
  let module Report = Past_experiments.Report in
  let module Json = Past_stdext.Json in
  match Json.of_string (Report.all_json ~scale:0.05 ()) with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok parsed ->
    let experiments =
      match Json.to_list parsed with
      | Some l -> l
      | None -> Alcotest.fail "top level is not a list"
    in
    check Alcotest.int "one object per experiment" (List.length Report.all)
      (List.length experiments);
    List.iter2
      (fun (name, _) obj ->
        check (Alcotest.option Alcotest.string) "experiment name" (Some name)
          (string_member "experiment" obj);
        let tables =
          match Json.member "tables" obj with
          | Some t -> ( match Json.to_list t with Some l -> l | None -> [])
          | None -> []
        in
        check Alcotest.bool (name ^ " has tables") true (List.length tables > 0);
        List.iter
          (fun tbl ->
            check Alcotest.bool (name ^ " table titled") true
              (string_member "title" tbl <> None);
            match Json.member "rows" tbl with
            | Some rows ->
              check Alcotest.bool (name ^ " rows are a list") true (Json.to_list rows <> None)
            | None -> Alcotest.failf "%s table missing rows" name)
          tables)
      Report.all experiments

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Ring overwrites are counted per event kind, and the synthetic
   [trace.dropped_events] rows appear in the registry table only when
   events were actually lost — a loss-free run's table (e.g. the EXP1
   golden) is byte-identical with tracing on. *)
let trace_drop_accounting () =
  let module Text_table = Past_stdext.Text_table in
  let reg = Registry.create ~name:"drops" ~trace_capacity:8 () in
  let tr = Registry.tracer reg in
  ignore (Registry.counter reg "x");
  check Alcotest.bool "no drop rows in loss-free table" false
    (contains (Text_table.render (Registry.to_table reg)) "trace.dropped_events");
  for i = 1 to 10 do
    Trace.record tr ~time:(float_of_int i) ~node:0 (Trace.Point { span = 1; name = "p" })
  done;
  for i = 11 to 16 do
    Trace.record tr ~time:(float_of_int i) ~node:0 (Trace.Span_end { span = 1; note = "" })
  done;
  (* 16 recorded into 8 slots: the 8 oldest (all points) were lost. *)
  check Alcotest.int "dropped total" 8 (Trace.dropped_total tr);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "drops counted by kind"
    [ ("point", 8) ]
    (Trace.dropped tr);
  check Alcotest.bool "drop rows surface once events are lost" true
    (contains (Text_table.render (Registry.to_table reg)) "trace.dropped_events")

(* Hand-built causal tree: child span under a root span, a route span
   owned by the child, repeated points collapsing, and a duplicate
   Span_start that must not fork the tree. *)
let span_tree_reconstruction () =
  let tr = Trace.create ~capacity:128 () in
  let a = Trace.start_span tr ~time:1.0 ~node:0 ~parent:Trace.no_parent ~op:"insert" "f" in
  let b = Trace.start_span tr ~time:2.0 ~node:0 ~parent:a ~op:"replicate" "" in
  let r = Trace.start_span tr ~time:2.5 ~node:3 ~parent:b ~op:Trace.route_op "k" in
  Trace.record tr ~time:2.6 ~node:3
    (Trace.Hop { span = r; seq = 0; to_ = 4; stage = Trace.Leaf_set });
  Trace.record tr ~time:2.7 ~node:4
    (Trace.Span_end { span = r; note = Trace.stage_name Trace.Leaf_set });
  Trace.record tr ~time:3.0 ~node:0 (Trace.Point { span = b; name = "ack" });
  Trace.record tr ~time:3.1 ~node:0 (Trace.Point { span = b; name = "ack" });
  Trace.record tr ~time:4.0 ~node:0 (Trace.Span_end { span = b; note = "" });
  Trace.record tr ~time:4.5 ~node:9
    (Trace.Span_start { span = b; parent = a; op = "replicate"; detail = "dup" });
  Trace.record tr ~time:5.0 ~node:0 (Trace.Span_end { span = a; note = "done" });
  match Trace.trees tr with
  | [ t ] ->
    check Alcotest.string "root op" "insert" t.Trace.t_span.Trace.op;
    check
      (Alcotest.option (Alcotest.float 1e-9))
      "root ended" (Some 5.0) t.Trace.t_span.Trace.s_end;
    (match t.Trace.t_children with
    | [ c ] ->
      check Alcotest.string "child op" "replicate" c.Trace.t_span.Trace.op;
      check Alcotest.int "child parent link" t.Trace.t_span.Trace.span_id
        c.Trace.t_span.Trace.span_parent;
      check Alcotest.string "duplicate start ignored (first wins)" ""
        c.Trace.t_span.Trace.detail;
      check
        (Alcotest.option (Alcotest.float 1e-9))
        "child ended" (Some 4.0) c.Trace.t_span.Trace.s_end;
      (match c.Trace.t_span.Trace.points with
      | [ p ] ->
        check Alcotest.string "point name" "ack" p.Trace.pt_name;
        check Alcotest.int "identical points collapse" 2 p.Trace.pt_count
      | l -> Alcotest.failf "expected one collapsed point, got %d" (List.length l));
      (match c.Trace.t_children with
      | [ { Trace.t_span = r; t_children = [] } ] ->
        check Alcotest.string "route span under child span" Trace.route_op r.Trace.op;
        check Alcotest.int "route parent link" c.Trace.t_span.Trace.span_id r.Trace.span_parent;
        check Alcotest.int "route under child span" 1 (List.length r.Trace.hops);
        check Alcotest.int "route delivered at hop target" 4 r.Trace.end_node;
        check Alcotest.string "delivery stage" "leaf-set" r.Trace.note
      | l -> Alcotest.failf "expected one route, got %d" (List.length l))
    | l -> Alcotest.failf "expected one child, got %d" (List.length l))
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

(* Satellite: fault-injected duplicate and reordered deliveries must
   not corrupt route reconstruction — hops are deduplicated by sequence
   number, so every surviving route still chains origin → delivery. *)
let route_reconstruction_under_faults () =
  let module Overlay = Past_pastry.Overlay in
  let module Net = Past_simnet.Net in
  let overlay : Past_experiments.Harness.probe Overlay.t =
    Overlay.create ~seed:77 ~trace_capacity:65_536 ()
  in
  Overlay.build_static overlay ~n:50;
  Net.set_duplication_rate (Overlay.net overlay) 0.3;
  Net.set_reorder (Overlay.net overlay) ~rate:0.3 ~max_extra_delay:25.0;
  let stats = Past_experiments.Harness.random_lookups overlay ~lookups:60 in
  check Alcotest.bool "lookups still delivered" true
    (stats.Past_experiments.Harness.delivered >= 60);
  let routes = Trace.routes (Registry.tracer (Overlay.registry overlay)) in
  check Alcotest.bool "routes reconstructed" true (List.length routes >= 60);
  List.iter assert_route_invariants routes

(* Full-stack causal trees: client inserts and lookups each mint one
   root span whose child routes parent back to it, even with duplicated
   and reordered messages in flight. *)
let causal_tree_end_to_end () =
  let module System = Past_core.System in
  let module Client = Past_core.Client in
  let module Net = Past_simnet.Net in
  let sys =
    System.create ~seed:909 ~n:30 ~trace_capacity:65_536
      ~node_capacity:(fun _ _ -> 1_000_000)
      ()
  in
  Net.set_duplication_rate (System.net sys) 0.2;
  Net.set_reorder (System.net sys) ~rate:0.2 ~max_extra_delay:20.0;
  let client = System.new_client sys ~quota:max_int () in
  let inserted = ref [] in
  for i = 1 to 8 do
    match
      Client.insert_sync client ~name:(Printf.sprintf "f%d" i) ~data:(String.make 64 'x') ~k:3 ()
    with
    | Client.Inserted { file_id; _ } -> inserted := file_id :: !inserted
    | Client.Insert_failed { reason; _ } -> Alcotest.failf "insert %d failed: %s" i reason
  done;
  let lookups = ref 0 in
  List.iter
    (fun file_id ->
      match Client.lookup_sync client ~file_id () with
      | Client.Found _ -> incr lookups
      | Client.Lookup_failed -> Alcotest.fail "lookup failed")
    !inserted;
  let tracer = Registry.tracer (System.registry sys) in
  check Alcotest.int "nothing dropped" 0 (Trace.dropped_total tracer);
  let op_trees =
    List.filter
      (fun t -> List.mem t.Trace.t_span.Trace.op [ "insert"; "lookup" ])
      (Trace.trees tracer)
  in
  check Alcotest.int "one root span per client operation" (8 + !lookups)
    (List.length op_trees);
  List.iter
    (fun t ->
      let s = t.Trace.t_span in
      check Alcotest.bool (s.Trace.op ^ " span ended") true (s.Trace.s_end <> None);
      List.iter
        (fun (c : Trace.tree) ->
          let r = c.Trace.t_span in
          if r.Trace.op = Trace.route_op && r.Trace.s_end <> None then begin
            check Alcotest.int "route parented to its operation" s.Trace.span_id
              r.Trace.span_parent;
            assert_route_invariants r
          end)
        t.Trace.t_children)
    op_trees

(* In a loss-free run the reconstructed per-route hop lists must agree
   in total with the per-stage hop counters recorded independently at
   each forwarding site. *)
let hops_match_stage_counters () =
  let module Overlay = Past_pastry.Overlay in
  let overlay : Past_experiments.Harness.probe Overlay.t =
    Overlay.create ~seed:21 ~trace_capacity:262_144 ()
  in
  Overlay.build_static overlay ~n:40;
  let stats = Past_experiments.Harness.random_lookups overlay ~lookups:80 in
  check Alcotest.int "all delivered" 80 stats.Past_experiments.Harness.delivered;
  let reg = Overlay.registry overlay in
  let tr = Registry.tracer reg in
  check Alcotest.int "no events dropped" 0 (Trace.dropped_total tr);
  let reconstructed =
    List.fold_left (fun acc r -> acc + List.length r.Trace.hops) 0 (Trace.routes tr)
  in
  let counted =
    List.fold_left
      (fun acc s ->
        acc
        + Counter.value
            (Registry.counter reg ~labels:[ ("stage", Trace.stage_name s) ] "pastry.route.hops"))
      0
      [ Trace.Leaf_set; Trace.Routing_table; Trace.Rare_case ]
  in
  check Alcotest.int "reconstructed hops equal stage counters" counted reconstructed

(* Windowed time-series: cumulative probes export per-window deltas,
   levels export instantaneous values, windowed histograms reset after
   each sample, and the ring keeps only the newest windows. *)
let timeseries_window_semantics () =
  let module Ts = Past_telemetry.Timeseries in
  let c = ref 0 and lvl = ref 0.0 in
  let h = Histogram.create () in
  let ts = Ts.create () in
  Ts.add_cumulative ts ~name:"c" (fun () -> !c);
  Ts.add_level ts ~name:"l" (fun () -> !lvl);
  Ts.add_windowed_histogram ts ~name:"h" h;
  c := 5;
  lvl := 1.5;
  Histogram.observe h 10.0;
  Histogram.observe h 20.0;
  Ts.sample ts ~now:1.0;
  c := 12;
  Ts.sample ts ~now:2.0;
  (match Ts.windows ts with
  | [ w1; w2 ] ->
    check (Alcotest.float 1e-9) "first window starts at 0" 0.0 w1.Ts.w_start;
    check (Alcotest.float 1e-9) "first window ends at sample" 1.0 w1.Ts.w_end;
    (match List.assoc "c" w1.Ts.w_values with
    | Ts.Count n -> check Alcotest.int "cumulative delta (first window)" 5 n
    | _ -> Alcotest.fail "c is not a Count");
    (match List.assoc "l" w1.Ts.w_values with
    | Ts.Level f -> check (Alcotest.float 1e-9) "level value" 1.5 f
    | _ -> Alcotest.fail "l is not a Level");
    (match List.assoc "h" w1.Ts.w_values with
    | Ts.Dist { d_count; d_mean; _ } ->
      check Alcotest.int "windowed histogram count" 2 d_count;
      check (Alcotest.float 1e-9) "windowed histogram mean" 15.0 d_mean
    | _ -> Alcotest.fail "h is not a Dist");
    (match (List.assoc "c" w2.Ts.w_values, List.assoc "h" w2.Ts.w_values) with
    | Ts.Count n, Ts.Dist { d_count; _ } ->
      check Alcotest.int "cumulative delta (second window)" 7 n;
      check Alcotest.int "histogram was reset between windows" 0 d_count
    | _ -> Alcotest.fail "second window shape")
  | l -> Alcotest.failf "expected 2 windows, got %d" (List.length l));
  for i = 3 to 1032 do
    Ts.sample ts ~now:(float_of_int i)
  done;
  let windows = Ts.windows ts in
  check Alcotest.int "ring bounded" 1024 (List.length windows);
  match windows with
  | w :: _ -> check (Alcotest.float 1e-9) "oldest retained window: 8 dropped" 9.0 w.Ts.w_end
  | [] -> Alcotest.fail "no windows retained"

(* Monitor episode semantics plus the run's sink the CI gate reads. *)
let monitor_grace_and_global () =
  let module Monitor = Past_telemetry.Monitor in
  let sink = Monitor.Sink.create () in
  let m = Monitor.create ~sink () in
  check Alcotest.bool "a sink activates" true (Monitor.active m);
  let failing = ref false in
  Monitor.register m ~name:"inv" (fun ~now:_ -> if !failing then Error "broken" else Ok ());
  Monitor.tick m ~now:0.0;
  check Alcotest.int "passing checks are not violations" 0 (Monitor.violations m);
  failing := true;
  Monitor.tick m ~now:1.0;
  check Alcotest.int "a failure violates at once" 1 (Monitor.violations m);
  Monitor.tick m ~now:8.0;
  Monitor.tick m ~now:12.0;
  check Alcotest.int "a run of failures is one violation" 1 (Monitor.violations m);
  (match Monitor.reports m with
  | [ r ] ->
    check Alcotest.int "checks" 4 r.Monitor.m_checks;
    check Alcotest.int "raw failures" 3 r.Monitor.m_failures;
    check
      (Alcotest.option (Alcotest.float 1e-9))
      "first violation time" (Some 1.0) r.Monitor.m_first_violation;
    check Alcotest.string "first detail" "broken" r.Monitor.m_first_detail
  | l -> Alcotest.failf "expected one report, got %d" (List.length l));
  (* Healing ends the episode: the next failure is a new violation. *)
  failing := false;
  Monitor.tick m ~now:13.0;
  failing := true;
  Monitor.tick m ~now:14.0;
  check Alcotest.int "fresh episode violates again" 2 (Monitor.violations m);
  (* Event-driven checks violate immediately. *)
  Monitor.record_check m ~name:"hop_bound" ~now:20.0 ~detail:"hops=9" false;
  check Alcotest.int "event-driven violation" 3 (Monitor.violations m);
  check Alcotest.int "the sink sees all" 3 (Monitor.Sink.violations sink);
  (* Only a monitor's first episode reads "first violated"; later
     ones carry their own time and episode number. *)
  check
    Alcotest.(list string)
    "sink lines"
    [
      "inv first violated at t=1.0: broken";
      "inv violated again at t=14.0 (episode 2): broken";
      "hop_bound first violated at t=20.0: hops=9";
    ]
    (Monitor.Sink.summaries sink);
  (* Sets without a sink are no-ops end to end. *)
  let off = Monitor.create () in
  Monitor.register off ~name:"never" (fun ~now:_ -> Error "x");
  Monitor.tick off ~now:1.0;
  Monitor.record_check off ~name:"never2" ~now:1.0 false;
  check Alcotest.int "inactive set records nothing" 0 (Monitor.violations off);
  check Alcotest.int "nor reaches any sink" 3 (Monitor.Sink.violations sink)

(* Chrome trace-event export: a well-formed traceEvents list where
   every async begin ("b") of an ended span/route has a matching end
   ("e") with the same id, and instants are phase "i". *)
let chrome_json_structure () =
  let module Json = Past_stdext.Json in
  let tr = Trace.create ~capacity:256 () in
  let a = Trace.start_span tr ~time:1.0 ~node:0 ~parent:Trace.no_parent ~op:"insert" "f" in
  let r = Trace.start_span tr ~time:1.5 ~node:2 ~parent:a ~op:Trace.route_op "k" in
  Trace.record tr ~time:1.6 ~node:2
    (Trace.Hop { span = r; seq = 0; to_ = 5; stage = Trace.Routing_table });
  Trace.record tr ~time:1.8 ~node:5
    (Trace.Span_end { span = r; note = Trace.stage_name Trace.Leaf_set });
  Trace.record tr ~time:2.0 ~node:0 (Trace.Span_end { span = a; note = "ok" });
  let j = Trace.chrome_json tr in
  let evs =
    match Json.member "traceEvents" j with
    | Some l -> ( match Json.to_list l with Some l -> l | None -> [])
    | None -> []
  in
  check Alcotest.bool "traceEvents non-empty" true (List.length evs > 0);
  let phase e = string_member "ph" e in
  let id e = match Json.member "id" e with Some (Json.Int i) -> Some i | _ -> None in
  let begins = List.filter (fun e -> phase e = Some "b") evs in
  let ends = List.filter (fun e -> phase e = Some "e") evs in
  check Alcotest.int "two async begins (span + route)" 2 (List.length begins);
  List.iter
    (fun b ->
      check Alcotest.bool "matching async end" true
        (List.exists (fun e -> id e = id b) ends))
    begins;
  check Alcotest.bool "hop exported as instant" true
    (List.exists (fun e -> phase e = Some "i") evs);
  (* The export round-trips through the JSON printer/parser. *)
  match Json.of_string (Json.to_string ~indent:true j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome JSON does not parse: %s" e

(* A route whose delivery never made it into the ring is still a span:
   the export shows it as a truncated "route" pair ending at the last
   event, and [routes] leaves it out. *)
let unended_route_exported_truncated () =
  let module Json = Past_stdext.Json in
  let tr = Trace.create ~capacity:64 () in
  let r = Trace.start_span tr ~time:1.0 ~node:2 ~parent:Trace.no_parent ~op:Trace.route_op "k" in
  Trace.record tr ~time:1.5 ~node:2
    (Trace.Hop { span = r; seq = 0; to_ = 7; stage = Trace.Leaf_set });
  check Alcotest.int "absent from routes" 0 (List.length (Trace.routes tr));
  check Alcotest.int "absent from operation spans" 0 (List.length (Trace.spans tr));
  let evs =
    match Json.member "traceEvents" (Trace.chrome_json tr) with
    | Some l -> Option.value ~default:[] (Json.to_list l)
    | None -> []
  in
  let async ph =
    List.filter
      (fun e -> string_member "ph" e = Some ph && string_member "cat" e = Some "route")
      evs
  in
  (match (async "b", async "e") with
  | [ b ], [ e ] ->
    check (Alcotest.option Alcotest.string) "named by its key" (Some "route k")
      (string_member "name" b);
    check Alcotest.bool "marked truncated" true
      (match Json.member "args" b with
      | Some args -> Json.member "truncated" args = Some (Json.Bool true)
      | None -> false);
    check Alcotest.bool "no delivery node" true
      (match Json.member "args" b with
      | Some args -> Json.member "delivered_at" args = None
      | None -> false);
    check Alcotest.bool "ends at the last event" true
      (Json.member "ts" e = Some (Json.Float 1500.0))
  | b, e ->
    Alcotest.failf "expected one route pair, got %d begins, %d ends" (List.length b)
      (List.length e));
  check Alcotest.int "its hop is an instant" 1
    (List.length (List.filter (fun e -> string_member "cat" e = Some "hop") evs))

let suite =
  ( "telemetry",
    [
      "counter semantics" => counter_semantics;
      "histogram percentiles match Stats" => histogram_matches_stats;
      "histogram reservoir bounded" => histogram_reservoir_bounded;
      "registry get-or-create" => registry_get_or_create;
      "registry isolation" => registry_isolation_between_systems;
      "route trace reconstruction" => route_trace_reconstruction;
      "trace ring drop accounting" => trace_drop_accounting;
      "span tree reconstruction" => span_tree_reconstruction;
      "route reconstruction under dup/reorder faults" => route_reconstruction_under_faults;
      "causal trees end-to-end under faults" => causal_tree_end_to_end;
      "reconstructed hops match stage counters" => hops_match_stage_counters;
      "timeseries window semantics" => timeseries_window_semantics;
      "monitor grace and global accounting" => monitor_grace_and_global;
      "chrome trace-event structure" => chrome_json_structure;
      "unended route exported truncated" => unended_route_exported_truncated;
      "report JSON smoke (PAST_SCALE=0.05)" => report_json_smoke;
    ] )
