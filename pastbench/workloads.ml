(* The three benchmark workloads. Each one generates every input it
   needs from the seed up front ([prepare], timed as bench.gen_s), then
   builds a system from those inputs ([setup]) as often as main.ml
   asks, and exposes the timed phase as a sequence of [step]s: one
   client op (lookup_zipf, turnover_log) or one timeline event (churn).
   Every call into the system goes through the public API and is
   wrapped in a tracer span; with the tracer off a span is a direct
   call. *)

module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Store = Past_core.Store
module Cache = Past_core.Cache
module Net = Past_simnet.Net
module Topology = Past_simnet.Topology
module Rng = Past_stdext.Rng
module Id = Past_id.Id
module Sizes = Past_workload.Sizes
module Capacities = Past_workload.Capacities
module Popularity = Past_workload.Popularity
module Pastry_config = Past_pastry.Config
open Common

(* The library's own default trace-ring capacity, passed explicitly so
   a change of default cannot silently change what is measured. *)
let trace_capacity = 4096

type check = { check : string; ok : bool; detail : string }

type instance = {
  sys : System.t;
  step : recorder -> unit;  (** one unit of work, reporting into the recorder *)
  finish : timed:recorder -> check list;  (** post-run probes, outside the timed phase *)
  extra : unit -> (string * float) list;  (** workload-side counts for the report *)
}

type prepared = {
  setup : Tracer.t -> aux:recorder -> instance;
      (** [aux] receives set-up, warm-up and post-run probe outcomes *)
  warmup_steps : int;  (** untimed steps between set-up and the timed phase *)
  n : int;
  backend : Store.backend;
  topology : unit -> Topology.t option;
  sizes : int array;  (** declared file sizes, for the store replay *)
}

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = { name : string; prepare : size -> seed:int -> prepared }

let capacity_draw ~mean =
  let dist = Capacities.normal_truncated ~mean ~cv:0.4 in
  fun _ rng -> Capacities.draw dist rng

(* Web-proxy sizes with the tail capped at 1% of a mean node, as the
   EXP9 storage experiment does: the largest file stays two orders of
   magnitude below a node's capacity. *)
let capped_web_proxy ~cap =
  let base = Sizes.web_proxy () in
  fun rng -> Stdlib.min cap (Sizes.draw base rng)

let span = Tracer.span

let insert_sync tr r c ~name ~size ~k =
  span tr "client.insert_sync" (fun () ->
      timed_call r Insert (fun () -> Client.insert_sync c ~name ~data:"" ~declared_size:size ~k ()))

let lookup_sync tr r c ~retries ~file_id =
  span tr "client.lookup_sync" (fun () ->
      timed_call r Lookup (fun () -> Client.lookup_sync c ~retries ~file_id ()))

(* Growable array of live files with O(1) removal by swap. *)
module Live = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create dummy = { a = Array.make 1024 dummy; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) t.a.(0) in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let take t i =
    let v = t.a.(i) in
    t.n <- t.n - 1;
    t.a.(i) <- t.a.(t.n);
    v
end

(* --- lookup_zipf ------------------------------------------------------ *)

(* Ops are packed ints: [i >= 0] looks up catalog entry [i], [-s]
   inserts a new file of declared size [s]. *)
let lookup_zipf =
  let prepare size ~seed =
    let n, catalog_n, ops_len =
      match size with Full -> (10_000, 10_000, 1 lsl 18) | Tiny -> (600, 300, 4096)
    in
    let k = 3 and clients_n = 16 and capacity_mean = 4_000_000 in
    let rng = Rng.create ((seed * 7919) + 1) in
    let draw_size = capped_web_proxy ~cap:(capacity_mean / 100) in
    let catalog_sizes = Array.init catalog_n (fun _ -> draw_size rng) in
    let pop = Popularity.zipf ~s:1.0 ~n:catalog_n in
    let ops =
      Array.init ops_len (fun _ ->
          if Rng.chance rng 0.05 then -draw_size rng else Popularity.draw pop rng)
    in
    let setup tr ~aux =
      let node_config = { Node.default_config with Node.verify_certificates = false } in
      let sys =
        span tr "system.create" (fun () ->
            System.create ~node_config ~trace_capacity ~store_backend:Store.Mem ~seed ~n
              ~node_capacity:(capacity_draw ~mean:capacity_mean)
              ())
      in
      let net = System.net sys in
      let clients =
        Array.init clients_n (fun _ -> System.new_client sys ~verify:false ~quota:max_int ())
      in
      let ids =
        span tr "bench.preload" (fun () ->
            Array.mapi
              (fun i size ->
                let res =
                  insert_sync tr aux clients.(i mod clients_n) ~name:(Printf.sprintf "zipf-%d" i)
                    ~size ~k
                in
                insert_outcome aux ~k ~sim_now:(Net.now net) res)
              catalog_sizes)
      in
      let next = ref 0 in
      let step timed =
        let i = !next in
        incr next;
        let c = clients.(i mod clients_n) in
        let op = ops.(i mod ops_len) in
        if op >= 0 then begin
          match ids.(op) with
          | Some file_id ->
            let res = lookup_sync tr timed c ~retries:0 ~file_id in
            lookup_outcome timed ~file_id ~sim_now:(Net.now net) res
          | None -> () (* a failed preload insert, already reported *)
        end
        else
          ignore
            (insert_outcome timed ~k ~sim_now:(Net.now net)
               (insert_sync tr timed c ~name:(Printf.sprintf "zipf-new-%d" i) ~size:(-op) ~k))
      in
      let finish ~timed:_ =
        let missing = Array.fold_left (fun acc id -> if id = None then acc + 1 else acc) 0 ids in
        [
          {
            check = "preload stored the whole catalog";
            ok = missing = 0;
            detail = Printf.sprintf "%d of %d catalog inserts failed" missing catalog_n;
          };
        ]
      in
      { sys; step; finish; extra = (fun () -> []) }
    in
    {
      setup;
      (* GD-S caches fill along lookup paths: warm them up first. *)
      warmup_steps = (match size with Full -> 100_000 | Tiny -> 2_000);
      n;
      backend = Store.Mem;
      topology = (fun () -> None);
      sizes = catalog_sizes;
    }
  in
  {
    name = "lookup_zipf";
    prepare;
  }

(* --- turnover_log ----------------------------------------------------- *)

(* A closed loop that holds global utilization just above [target]:
   insert while below it, reclaim a random live file while above it,
   and look a live file up every 25th step. *)
let turnover_log =
  let prepare size ~seed =
    let n = match size with Full -> 150 | Tiny -> 40 in
    let k = 3 and clients_n = 16 and capacity_mean = 1_000_000 in
    let target = 0.905 in
    let rng = Rng.create ((seed * 7919) + 2) in
    let draw_size = capped_web_proxy ~cap:(capacity_mean / 100) in
    (* Enough preload sizes to fill every node at the mean file size
       with a wide margin; the loop stops at [target]. *)
    let preload_sizes = Array.init (4 * n * capacity_mean / (k * 4_000)) (fun _ -> draw_size rng) in
    let stream_len = 1 lsl 17 in
    let sizes = Array.init stream_len (fun _ -> draw_size rng) in
    let picks = Array.init stream_len (fun _ -> Rng.int rng (1 lsl 30)) in
    let backend = Store.Log { dir = None; segment_target = Some (32 * 1024) } in
    let setup tr ~aux =
      let node_config =
        {
          Node.default_config with
          Node.verify_certificates = false;
          cache_policy = Cache.No_cache;
          cache_on_insert_path = false;
          cache_on_lookup_path = false;
          admission_thresholds = true;
          replica_diversion = true;
        }
      in
      let sys =
        span tr "system.create" (fun () ->
            System.create ~node_config ~trace_capacity ~store_backend:backend ~seed ~n
              ~node_capacity:(capacity_draw ~mean:capacity_mean)
              ())
      in
      let net = System.net sys in
      let clients =
        Array.init clients_n (fun _ -> System.new_client sys ~verify:false ~quota:max_int ())
      in
      (* (file_id, owning client) of every stored file *)
      let live = Live.create (Id.zero ~width:Id.file_bits, 0) in
      let reclaimed = Queue.create () in
      span tr "bench.preload" (fun () ->
          let i = ref 0 in
          while System.global_utilization sys < target && !i < Array.length preload_sizes do
            let ci = !i mod clients_n in
            let res =
              insert_sync tr aux clients.(ci) ~name:(Printf.sprintf "turn-%d" !i)
                ~size:preload_sizes.(!i) ~k
            in
            (match insert_outcome aux ~k ~sim_now:(Net.now net) res with
            | Some id -> Live.add live (id, ci)
            | None -> ());
            incr i
          done);
      let preload_util = System.global_utilization sys in
      let min_util = ref infinity in
      let next = ref 0 in
      let step timed =
        let i = !next in
        incr next;
        let j = i land (stream_len - 1) in
        let c = clients.(i mod clients_n) in
        if i mod 25 = 24 && live.Live.n > 0 then begin
          let file_id, _ = live.Live.a.(picks.(j) mod live.Live.n) in
          let res = lookup_sync tr timed c ~retries:0 ~file_id in
          lookup_outcome timed ~file_id ~sim_now:(Net.now net) res
        end
        else if System.global_utilization sys < target || live.Live.n = 0 then begin
          let res =
            insert_sync tr timed c ~name:(Printf.sprintf "turn-new-%d" i) ~size:sizes.(j) ~k
          in
          match insert_outcome timed ~k ~sim_now:(Net.now net) res with
          | Some id -> Live.add live (id, i mod clients_n)
          | None -> ()
        end
        else begin
          let file_id, owner = Live.take live (picks.(j) mod live.Live.n) in
          let res =
            span tr "client.reclaim_sync" (fun () ->
                timed_call timed Reclaim (fun () ->
                    Client.reclaim_sync clients.(owner) ~file_id ~expected:k ()))
          in
          reclaim_outcome timed ~expected:k ~file_id ~sim_now:(Net.now net) res;
          Queue.add file_id reclaimed;
          if Queue.length reclaimed > 200 then ignore (Queue.pop reclaimed)
        end;
        let u = System.global_utilization sys in
        if u < !min_util then min_util := u
      in
      let finish ~timed:_ =
        (* A fresh client: no stale timers from the timed phase. *)
        let probe = System.new_client sys ~verify:false ~quota:0 () in
        let served = ref 0 in
        Queue.iter
          (fun file_id ->
            match lookup_sync tr aux probe ~retries:0 ~file_id with
            | Client.Found _ -> incr served
            | Client.Lookup_failed -> ())
          reclaimed;
        (* Distinct files: a second lookup of one file by one client can
           be failed by the first one's stale timeout (see README.md). *)
        let live_probes = Stdlib.min 200 live.Live.n in
        let missing = ref 0 in
        List.iter
          (fun i ->
            let file_id, _ = live.Live.a.(i) in
            match lookup_sync tr aux probe ~retries:0 ~file_id with
            | Client.Found { cert; _ } when Id.equal cert.Past_core.Certificate.file_id file_id -> ()
            | Client.Found _ | Client.Lookup_failed -> incr missing)
          (Rng.sample_without_replacement (Rng.create (seed + 3)) live_probes live.Live.n);
        [
          {
            check = "preload reached high utilization";
            ok = preload_util >= 0.9;
            detail = Printf.sprintf "utilization %.4f after preload" preload_util;
          };
          {
            check = "utilization held >= 0.9 in the timed phase";
            ok = !min_util >= 0.9;
            detail = Printf.sprintf "minimum %.4f" !min_util;
          };
          {
            check = "reclaimed files are never served";
            ok = !served = 0;
            detail =
              Printf.sprintf "%d of %d recently reclaimed files served" !served
                (Queue.length reclaimed);
          };
          {
            check = "live files are served";
            ok = !missing = 0;
            detail = Printf.sprintf "%d of %d sampled live files not found" !missing live_probes;
          };
        ]
      in
      let extra () =
        [ ("min_utilization", !min_util); ("live_files", float_of_int live.Live.n) ]
      in
      { sys; step; finish; extra }
    in
    {
      setup;
      (* Let the first tombstones accumulate so compaction is already
         in its cycle when timing starts. *)
      warmup_steps = (match size with Full -> 10_000 | Tiny -> 1_000);
      n;
      backend;
      topology = (fun () -> None);
      sizes;
    }
  in
  {
    name = "turnover_log";
    prepare;
  }

(* --- churn ------------------------------------------------------------ *)

type churn_event = { at : float; node : int; up : bool }

let churn =
  let prepare size ~seed =
    let n, catalog_n = match size with Full -> (100, 60) | Tiny -> (30, 20) in
    let k = 3 and clients_n = 4 and capacity = 3_000_000 and file_size = 10_000 in
    let mean_down = 8_000.0 in
    (* ~7% of the time down: up / (up + down) = 0.93 *)
    let mean_up = mean_down *. 0.93 /. 0.07 in
    let probe_period = 2_500.0 and insert_period = 2_500.0 in
    (* Far beyond what a run reaches (~50 sim-s per host second). *)
    let horizon = 4_000_000.0 in
    let rng = Rng.create ((seed * 7919) + 3) in
    let exp mean = -.mean *. log (1.0 -. Rng.float rng 1.0) in
    let events =
      List.concat
        (List.init n (fun node ->
             let rec gen t up acc =
               let t = t +. exp (if up then mean_up else mean_down) in
               if t > horizon then acc else gen t (not up) ({ at = t; node; up = not up } :: acc)
             in
             gen 0.0 true []))
      |> List.sort (fun a b -> compare (a.at, a.node) (b.at, b.node))
      |> Array.of_list
    in
    let stream_len = 1 lsl 16 in
    let picks = Array.init stream_len (fun _ -> Rng.int rng (1 lsl 30)) in
    let setup tr ~aux =
      let node_config =
        { Node.default_config with Node.verify_certificates = false; replication_delay = 200.0 }
      in
      let sys =
        span tr "system.create" (fun () ->
            System.create ~node_config ~topology:(Topology.transit_stub ()) ~trace_capacity
              ~store_backend:Store.Mem ~seed ~n
              ~node_capacity:(fun _ _ -> capacity)
              ())
      in
      let net = System.net sys in
      let nodes = System.nodes sys in
      let clients =
        Array.init clients_n (fun _ ->
            System.new_client sys ~verify:false ~op_timeout:2_000.0 ~quota:max_int ())
      in
      let catalog =
        span tr "bench.preload" (fun () ->
            Array.init catalog_n (fun i ->
                insert_sync tr aux clients.(i mod clients_n) ~name:(Printf.sprintf "churn-%d" i)
                  ~size:file_size ~k
                |> insert_outcome aux ~k ~sim_now:(Net.now net)))
        |> Array.to_list |> List.filter_map Fun.id |> Array.of_list
      in
      let added = ref [] in
      span tr "bench.warmup" (fun () ->
          span tr "system.start_maintenance" (fun () -> System.start_maintenance sys);
          span tr "system.run" (fun () -> System.run ~until:(Net.now net +. 5_000.0) sys));
      let t0 = Net.now net in
      let next_event = ref 0 and probes = ref 0 and inserts = ref 0 and pick = ref 0 in
      let kills = ref 0 and revives = ref 0 in
      let next_pick () =
        let p = picks.(!pick land (stream_len - 1)) in
        incr pick;
        p
      in
      let alive node = Net.alive net (Node.addr node) in
      (* A random client whose access node is up, if any. *)
      let live_client () =
        let start = next_pick () in
        let rec find i =
          if i = clients_n then None
          else
            let c = clients.((start + i) mod clients_n) in
            if alive (Client.access c) then Some c else find (i + 1)
        in
        find 0
      in
      let probe timed =
        let file_id = catalog.(next_pick () mod Array.length catalog) in
        note_issue timed Lookup;
        match live_client () with
        | None -> lookup_outcome timed ~file_id ~sim_now:(Net.now net) Client.Lookup_failed
        | Some c ->
          span tr "client.lookup" (fun () ->
              Client.lookup c ~retries:2 ~file_id (fun res ->
                  lookup_outcome timed ~file_id ~sim_now:(Net.now net) res))
      in
      (* A trickle insert, read back once by another live client. *)
      let insert timed =
        match live_client () with
        | None ->
          note_issue timed Insert;
          ignore
            (insert_outcome timed ~k ~sim_now:(Net.now net)
               (Client.Insert_failed { attempts = 0; reason = "no live access node" }))
        | Some c -> (
          let name = Printf.sprintf "churn-new-%d" !inserts in
          match
            insert_outcome timed ~k ~sim_now:(Net.now net)
              (insert_sync tr timed c ~name ~size:file_size ~k)
          with
          | None -> ()
          | Some file_id -> (
            added := file_id :: !added;
            match live_client () with
            | None -> ()
            | Some reader ->
              let res = lookup_sync tr timed reader ~retries:2 ~file_id in
              lookup_outcome timed ~file_id ~sim_now:(Net.now net) res))
      in
      let step timed =
        let ev_at =
          if !next_event < Array.length events then t0 +. events.(!next_event).at else infinity
        in
        let probe_at = t0 +. (float_of_int (!probes + 1) *. probe_period) in
        let insert_at = t0 +. (float_of_int (!inserts + 1) *. insert_period) in
        let at = Float.min ev_at (Float.min probe_at insert_at) in
        if at > Net.now net then span tr "system.run" (fun () -> System.run ~until:at sys);
        if at = ev_at then begin
          let ev = events.(!next_event) in
          incr next_event;
          let node = nodes.(ev.node) in
          if ev.up && not (alive node) then begin
            incr revives;
            span tr "system.revive_node" (fun () -> System.revive_node sys node)
          end
          else if (not ev.up) && alive node then begin
            incr kills;
            span tr "system.kill_node" (fun () -> System.kill_node sys node)
          end
        end
        else if at = probe_at then begin
          incr probes;
          probe timed
        end
        else begin
          incr inserts;
          insert timed
        end
      in
      let finish ~timed =
        Array.iter
          (fun node ->
            if not (alive node) then
              span tr "system.revive_node" (fun () -> System.revive_node sys node))
          nodes;
        let cfg = Past_pastry.Overlay.config (System.overlay sys) in
        (* Quiesce: repair finishes and every in-flight probe settles
           (3 attempts of 2000 plus backoffs stay under 20000). *)
        span tr "system.run" (fun () ->
            System.run
              ~until:
                (Net.now net
                +. (3.0 *. cfg.Pastry_config.failure_timeout)
                +. (3.0 *. cfg.Pastry_config.keepalive_period)
                +. 20_000.0)
              sys);
        let unsettled = attempted timed - timed.completed in
        let auditor = System.new_client sys ~verify:false ~op_timeout:2_000.0 ~quota:0 () in
        let files = Array.append catalog (Array.of_list (List.rev !added)) in
        let lost = ref 0 in
        Array.iter
          (fun file_id ->
            match lookup_sync tr aux auditor ~retries:3 ~file_id with
            | Client.Found { cert; _ } when Id.equal cert.Past_core.Certificate.file_id file_id -> ()
            | Client.Found _ | Client.Lookup_failed -> incr lost)
          files;
        span tr "system.stop_maintenance" (fun () -> System.stop_maintenance sys);
        [
          {
            check = "preload stored the whole catalog";
            ok = Array.length catalog = catalog_n;
            detail = Printf.sprintf "%d of %d catalog files stored" (Array.length catalog) catalog_n;
          };
          {
            check = "every probe settled after quiescence";
            ok = unsettled = 0;
            detail = Printf.sprintf "%d client ops never settled" unsettled;
          };
          {
            check = "final audit finds no lost file";
            ok = !lost = 0;
            detail = Printf.sprintf "%d of %d files lost" !lost (Array.length files);
          };
        ]
      in
      let extra () =
        [
          ("kills", float_of_int !kills);
          ("revives", float_of_int !revives);
          ("churn_events_left", float_of_int (Array.length events - !next_event));
        ]
      in
      { sys; step; finish; extra }
    in
    {
      setup;
      warmup_steps = 0 (* the set-up already runs maintenance for 5 sim s *);
      n;
      backend = Store.Mem;
      topology = (fun () -> Some (Topology.transit_stub ()));
      sizes = Array.make 4096 file_size;
    }
  in
  {
    name = "churn";
    prepare;
  }

let all = [ lookup_zipf; turnover_log; churn ]
let find name = List.find_opt (fun w -> w.name = name) all
