(* Invariant monitors. Each monitor keeps its own failure bookkeeping;
   an episode latch counts a run of failures as one violation. A
   process-global accumulator (mutex-guarded — experiment suites run
   systems on multiple domains) lets a CI driver fail a whole run on
   any violation without threading monitor sets through every layer. *)

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

type t = {
  is_active : bool;
  mutable entries : entry list; (* newest first *)
  mutable tracer : Trace.t option;
}

(* --- process-global accounting ---------------------------------------- *)

let global_mutex = Mutex.create ()
let global_count = ref 0
let global_lines : string list ref = ref [] (* newest first *)

let note_global line =
  Mutex.lock global_mutex;
  incr global_count;
  if not (List.mem line !global_lines) then global_lines := line :: !global_lines;
  Mutex.unlock global_mutex

let global_violations () =
  Mutex.lock global_mutex;
  let n = !global_count in
  Mutex.unlock global_mutex;
  n

let global_summaries () =
  Mutex.lock global_mutex;
  let l = List.rev !global_lines in
  Mutex.unlock global_mutex;
  l

let reset_global () =
  Mutex.lock global_mutex;
  global_count := 0;
  global_lines := [];
  Mutex.unlock global_mutex

(* --- monitor sets ------------------------------------------------------ *)

(* Set once by the binary before any worker domain spawns; read-only after. *)
let default_active = ref false
let set_default_active a = default_active := a

let create () = { is_active = !default_active; entries = []; tracer = None }

let active t = t.is_active
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
  if t.is_active then ignore (fresh t ~name ~interval ~pred:(Some pred))

let violate t e ~now ~detail =
  e.e_violations <- e.e_violations + 1;
  if e.e_first_violation = None then begin
    e.e_first_violation <- Some now;
    e.e_first_detail <- detail;
    e.e_trace_context <- trace_context t
  end;
  note_global
    (Printf.sprintf "%s first violated at t=%.1f%s" e.e_name now
       (if detail = "" then "" else ": " ^ detail))

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
  if t.is_active then
    List.iter
      (fun e ->
        match e.e_pred with
        | Some pred when now >= e.e_next_due ->
          e.e_next_due <- now +. e.e_interval;
          observe t e ~now (pred ~now)
        | _ -> ())
      t.entries

let record_check t ~name ~now ?(detail = "") ok =
  if t.is_active then begin
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
