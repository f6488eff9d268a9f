(* Windowed time-series: a fixed set of probes sampled into a bounded
   ring of windows. Probes are plain closures so the module stays
   independent of where the values come from (registry counters, store
   scans, ...). Cumulative probes keep the previous reading and export
   deltas; windowed-histogram probes reset their histogram after every
   sample so each window's quantiles cover only that window. *)

module Text_table = Past_stdext.Text_table

type probe =
  | P_cumulative of { read : unit -> int; mutable last : int }
  | P_level of (unit -> float)
  | P_hist of Histogram.t

type value =
  | Count of int
  | Level of float
  | Dist of { d_count : int; d_mean : float; d_p50 : float; d_p99 : float }

type window = { w_start : float; w_end : float; w_values : (string * value) list }

type t = {
  mutable probes : (string * probe) list; (* newest first *)
  ring : window option array;
  mutable next : int;
  mutable total : int;
  mutable last_time : float;
}

let capacity = 1024

let create () =
  { probes = []; ring = Array.make capacity None; next = 0; total = 0; last_time = 0.0 }

let add t name probe =
  if List.mem_assoc name t.probes then
    invalid_arg (Printf.sprintf "Timeseries: series %S already registered" name);
  t.probes <- (name, probe) :: t.probes

let add_cumulative t ~name read = add t name (P_cumulative { read; last = read () })
let add_level t ~name read = add t name (P_level read)
let add_windowed_histogram t ~name h = add t name (P_hist h)

let sample t ~now =
  let values =
    List.rev_map
      (fun (name, probe) ->
        let v =
          match probe with
          | P_cumulative p ->
            let cur = p.read () in
            let delta = cur - p.last in
            p.last <- cur;
            Count delta
          | P_level read -> Level (read ())
          | P_hist h ->
            let s = Histogram.summary h in
            Histogram.reset h;
            Dist
              {
                d_count = s.Histogram.s_count;
                d_mean = s.Histogram.s_mean;
                d_p50 = s.Histogram.s_p50;
                d_p99 = s.Histogram.s_p99;
              }
        in
        (name, v))
      t.probes
  in
  t.ring.(t.next) <- Some { w_start = t.last_time; w_end = now; w_values = values };
  t.next <- (t.next + 1) mod capacity;
  t.total <- t.total + 1;
  t.last_time <- now

let windows t =
  if t.total = 0 then []
  else begin
    let kept = Stdlib.min t.total capacity in
    let start = (t.next - kept + capacity) mod capacity in
    List.init kept (fun i ->
        match t.ring.((start + i) mod capacity) with
        | Some w -> w
        | None -> assert false)
  end

(* --- export ------------------------------------------------------------ *)

let series_names t = List.rev_map fst t.probes

let to_table ?(max_rows = 24) t =
  let table = Text_table.create ("window" :: "t_end" :: series_names t) in
  let ws = windows t in
  let n = List.length ws in
  let stride = if n <= max_rows then 1 else (n + max_rows - 1) / max_rows in
  List.iteri
    (fun i w ->
      if i mod stride = 0 || i = n - 1 then
        Text_table.add_row table
          (string_of_int (i + 1)
          :: Printf.sprintf "%g" w.w_end
          :: List.map
               (fun (_, v) ->
                 match v with
                 | Count c -> string_of_int c
                 | Level x -> Printf.sprintf "%.2f" x
                 | Dist d ->
                   Printf.sprintf "n=%d p50=%.1f p99=%.1f" d.d_count d.d_p50 d.d_p99)
               w.w_values)
        )
    ws;
  table
