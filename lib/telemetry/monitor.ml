(* Invariant monitors. Each monitor keeps its own failure bookkeeping;
   an episode latch counts a run of failures as one violation. A set
   made with a sink also reports each violation to it: the sink is the
   run's collector, shared by every system the run creates (on any
   domain, hence its mutex), so a CI driver can fail a whole run on any
   violation without threading monitor sets through every layer. *)

type entry = {
  e_name : string;
  e_interval : float; (* min sim-time between evaluations; 0 = every tick *)
  mutable e_next_due : float;
  e_pred : (now:float -> (unit, string) result) option; (* None for event-driven *)
  mutable e_checks : int;
  mutable e_failures : int;
  mutable e_violations : int;
  mutable e_episode_counted : bool; (* current episode already a violation *)
  mutable e_first_violation : float option;
  mutable e_first_detail : string;
  mutable e_trace_context : string;
}

module Sink = struct
  type t = { mutex : Mutex.t; mutable count : int; mutable lines : string list (* newest first *) }

  let create () = { mutex = Mutex.create (); count = 0; lines = [] }

  let note s line =
    Mutex.protect s.mutex (fun () ->
        s.count <- s.count + 1;
        if not (List.mem line s.lines) then s.lines <- line :: s.lines)

  let violations s = Mutex.protect s.mutex (fun () -> s.count)
  let summaries s = Mutex.protect s.mutex (fun () -> List.rev s.lines)
end

type t = {
  sink : Sink.t option; (* active iff present *)
  mutable entries : entry list; (* newest first *)
  mutable tracer : Trace.t option;
}

let create ?sink () = { sink; entries = []; tracer = None }

let active t = Option.is_some t.sink
let attach_tracer t tracer = t.tracer <- Some tracer

let trace_context t =
  match t.tracer with
  | None -> ""
  | Some tr ->
    let recent =
      let evs = Trace.events tr in
      let n = List.length evs in
      List.filteri (fun i _ -> i >= n - 6) evs
    in
    String.concat "; "
      (List.map
         (fun (e : Trace.event) ->
           let k =
             match e.Trace.kind with
             | Trace.Span_start { span; op; detail; _ } ->
               Printf.sprintf "span_start#%d %s %s" span op detail
             | Trace.Hop { span; to_; _ } -> Printf.sprintf "hop#%d %d->%d" span e.Trace.node to_
             | Trace.Point { span; name } -> Printf.sprintf "point#%d %s" span name
             | Trace.Span_end { span; note } -> Printf.sprintf "span_end#%d %s" span note
           in
           Printf.sprintf "[t=%.1f n%d %s]" e.Trace.time e.Trace.node k)
         recent)

let fresh t ~name ~interval ~pred =
  let e =
    {
      e_name = name;
      e_interval = interval;
      e_next_due = neg_infinity;
      e_pred = pred;
      e_checks = 0;
      e_failures = 0;
      e_violations = 0;
      e_episode_counted = false;
      e_first_violation = None;
      e_first_detail = "";
      e_trace_context = "";
    }
  in
  t.entries <- e :: List.filter (fun x -> x.e_name <> name) t.entries;
  e

let find_or_create t ~name ~pred =
  match List.find_opt (fun e -> e.e_name = name) t.entries with
  | Some e -> e
  | None -> fresh t ~name ~interval:0.0 ~pred

let register t ~name ?(interval = 0.0) pred =
  if active t then ignore (fresh t ~name ~interval ~pred:(Some pred))

let violate t e ~now ~detail =
  e.e_violations <- e.e_violations + 1;
  if e.e_first_violation = None then begin
    e.e_first_violation <- Some now;
    e.e_first_detail <- detail;
    e.e_trace_context <- trace_context t
  end;
  Option.iter
    (fun sink ->
      Sink.note sink
        (Printf.sprintf "%s first violated at t=%.1f%s" e.e_name now
           (if detail = "" then "" else ": " ^ detail)))
    t.sink

let observe t e ~now result =
  e.e_checks <- e.e_checks + 1;
  match result with
  | Ok () -> e.e_episode_counted <- false
  | Error detail ->
    e.e_failures <- e.e_failures + 1;
    if not e.e_episode_counted then begin
      e.e_episode_counted <- true;
      violate t e ~now ~detail
    end

let tick t ~now =
  if active t then
    List.iter
      (fun e ->
        match e.e_pred with
        | Some pred when now >= e.e_next_due ->
          e.e_next_due <- now +. e.e_interval;
          observe t e ~now (pred ~now)
        | _ -> ())
      t.entries

let record_check t ~name ~now ?(detail = "") ok =
  if active t then begin
    let e = find_or_create t ~name ~pred:None in
    e.e_checks <- e.e_checks + 1;
    if not ok then begin
      e.e_failures <- e.e_failures + 1;
      violate t e ~now ~detail
    end
  end

(* --- reports ----------------------------------------------------------- *)

type report = {
  m_name : string;
  m_checks : int;
  m_failures : int;
  m_violations : int;
  m_first_violation : float option;
  m_first_detail : string;
  m_trace_context : string;
}

let reports t =
  List.map
    (fun e ->
      {
        m_name = e.e_name;
        m_checks = e.e_checks;
        m_failures = e.e_failures;
        m_violations = e.e_violations;
        m_first_violation = e.e_first_violation;
        m_first_detail = e.e_first_detail;
        m_trace_context = e.e_trace_context;
      })
    t.entries
  |> List.sort (fun a b -> String.compare a.m_name b.m_name)

let violations t = List.fold_left (fun acc e -> acc + e.e_violations) 0 t.entries
