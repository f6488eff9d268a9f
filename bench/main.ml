(* Benchmark harness.

   Part 1: Bechamel micro-benchmarks of the primitives each reproduced
   table rests on — hashing and signatures (the certificate machinery
   behind EXP9/EXP13), id arithmetic and table maintenance (EXP1–EXP8
   routing), storage admission (EXP9) and cache decisions (EXP11) —
   plus whole-operation benches: one routed lookup and one full PAST
   insert.

   Part 2: macro-benchmarks timed with the wall clock — overlay build
   time, routed-lookup throughput at N=2000, and full-insert
   throughput — the numbers the perf trajectory (BENCH_results.json)
   is tracked against.

   Part 3: regeneration of every table the paper's claims map to
   (EXP1–EXP13; see DESIGN.md section 5 and EXPERIMENTS.md). Scale with
   --scale F (default 1.0; the tables in EXPERIMENTS.md use 1.0); the
   worker-domain pool runs at the runtime's recommended width.

   Part 4: store-backend benchmarks — sustained insert throughput on
   the in-memory vs disk-backed log store, and a replacement-churn run
   that exercises log compaction.

   Flags: --micro-only | --macro-only | --tables-only | --store-only
   select one part (default: all); --json additionally writes every
   micro/macro result that ran to BENCH_results.json (schema: bench
   name -> {value, unit} with unit one of ns/op, ops/sec, ms), merging
   with rows already in the file so partial runs keep the rest. *)

open Bechamel
open Toolkit
module Id = Past_id.Id
module Rng = Past_stdext.Rng
module Sha1 = Past_crypto.Sha1
module Sha256 = Past_crypto.Sha256
module Rsa = Past_crypto.Rsa
module Nat = Past_bignum.Nat
module Json = Past_stdext.Json

(* --- results accumulated for --json ------------------------------------ *)

let json_results : (string * Json.t) list ref = ref []

let record name ~unit value =
  if Float.is_finite value then
    json_results :=
      (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])
      :: !json_results

let write_json path =
  (* Merge into an existing results file so a partial run (--store-only,
     --macro-only) refreshes its own rows without dropping the rest. *)
  let previous =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.of_string s with
      | Ok (Json.Obj fields) -> (
        match List.assoc_opt "benches" fields with Some (Json.Obj b) -> b | _ -> [])
      | Ok _ | Error _ -> []
    end
    else []
  in
  let fresh = List.rev !json_results in
  let kept = List.filter (fun (name, _) -> not (List.mem_assoc name fresh)) previous in
  let obj =
    Json.Obj
      [
        ("schema", Json.String "bench name -> {value, unit}; unit is ns/op, ops/sec or ms");
        ("benches", Json.Obj (kept @ fresh));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:true obj);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d benches)\n%!" path (List.length !json_results)

(* --- prebuilt fixtures (outside the timed sections) ------------------- *)

let rng = Rng.create 20260705
let payload_4k = String.init 4096 (fun i -> Char.chr (i mod 256))
let rsa_keypair = Rsa.generate rng ~bits:512
let rsa_signature = Rsa.sign rsa_keypair (Bytes.of_string payload_4k)
let nat_base = Rng.bits64 rng |> Int64.to_int |> abs |> Nat.of_int
let nat_exp = Nat.random_bits rng 512

(* Odd modulus: the RSA case, and the one mod_pow's Montgomery fast
   path covers. *)
let nat_mod =
  let m = Nat.add (Nat.random_bits rng 512) Nat.one in
  if Nat.is_even m then Nat.add m Nat.one else m
let id_target = Id.random rng ~width:Id.node_bits
let id_x = Id.random rng ~width:Id.node_bits
let id_y = Id.random rng ~width:Id.node_bits

(* The pre-byte-pair-table hex renderer (one shift/mask pair per
   nibble), kept inline as the baseline `id to_hex` is measured
   against. *)
let hex_input_16b = String.init 16 (fun i -> Char.chr (((i * 37) + 5) land 0xff))

let to_hex_per_nibble (s : string) =
  let hex_digits = "0123456789abcdef" in
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let v = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (v lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (v land 0xf))
  done;
  Bytes.unsafe_to_string out
let overlay = lazy (Harness_fixture.overlay 2000)
let past_system = lazy (Harness_fixture.system 100)

(* Telemetry-overhead pair: the same whole-operation benches with the
   trace ring disabled (capacity 0 — recording is one dead branch).
   Comparing against the default-traced variants above bounds the cost
   of leaving causal tracing on. *)
let overlay_untraced = lazy (Harness_fixture.overlay ~trace_capacity:0 2000)
let past_system_untraced = lazy (Harness_fixture.system ~trace_capacity:0 100)

let micro_tests () =
  let overlay = Lazy.force overlay and past_system = Lazy.force past_system in
  let overlay_untraced = Lazy.force overlay_untraced
  and past_system_untraced = Lazy.force past_system_untraced in
  Test.make_grouped ~name:"past"
    [
      Test.make ~name:"sha1 (4 KiB)" (Staged.stage (fun () -> Sha1.digest_string payload_4k));
      Test.make ~name:"sha256 (4 KiB)" (Staged.stage (fun () -> Sha256.digest_string payload_4k));
      Test.make ~name:"rsa-512 sign"
        (Staged.stage (fun () -> Rsa.sign rsa_keypair (Bytes.of_string "msg")));
      Test.make ~name:"rsa-512 verify"
        (Staged.stage (fun () ->
             Rsa.verify rsa_keypair.Rsa.pub (Bytes.of_string payload_4k) rsa_signature));
      Test.make ~name:"nat modpow 512b"
        (Staged.stage (fun () -> Nat.mod_pow nat_base nat_exp nat_mod));
      Test.make ~name:"id closer (fast path)"
        (Staged.stage (fun () -> Id.closer ~target:id_target id_x id_y));
      Test.make ~name:"id to_hex"
        (Staged.stage (fun () -> Id.to_hex id_x));
      Test.make ~name:"id to_hex (per-nibble baseline)"
        (Staged.stage (fun () -> to_hex_per_nibble hex_input_16b));
      Test.make ~name:"id shared-prefix"
        (Staged.stage (fun () -> Id.shared_prefix_digits ~b:4 id_x id_y));
      Test.make ~name:"leaf-set insert x32" (Staged.stage Harness_fixture.leaf_insert_once);
      Test.make ~name:"routing-table consider" (Staged.stage Harness_fixture.rt_consider_once);
      Test.make ~name:"store admission check" (Staged.stage Harness_fixture.store_admit_once);
      Test.make ~name:"cache offer+find (GD-S)" (Staged.stage Harness_fixture.cache_cycle_once);
      Test.make ~name:"route 1 lookup (N=2000)"
        (Staged.stage (fun () -> Harness_fixture.route_once overlay));
      Test.make ~name:"route 1 lookup (N=2000, tracing off)"
        (Staged.stage (fun () -> Harness_fixture.route_once overlay_untraced));
      Test.make ~name:"full PAST insert (N=100, k=3)"
        (Staged.stage (fun () -> Harness_fixture.insert_once past_system));
      Test.make ~name:"full PAST insert (N=100, k=3, tracing off)"
        (Staged.stage (fun () -> Harness_fixture.insert_once past_system_untraced));
    ]

let run_micro () =
  print_endline "== micro-benchmarks (Bechamel, monotonic clock) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Past_stdext.Text_table.create [ "benchmark"; "time/op"; "r^2" ] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan
      in
      record name ~unit:"ns/op" ns;
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> Printf.sprintf "%.3f" r | None -> "-"
      in
      Past_stdext.Text_table.add_row table [ name; pretty; r2 ])
    (List.sort compare rows);
  Past_stdext.Text_table.print table

(* --- macro-benchmarks --------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --- event-scheduler benchmarks ---------------------------------------- *)

(* Steady-state throughput of the simulator's event queue at a fixed
   pending-set size: prefill P events, then cycle pop-one/push-one (the
   simulator's regime — every delivery usually schedules a successor).
   The heap pays O(log P) boxed-float comparisons per cycle; the wheel
   is O(1) amortized, so the gap widens with P. *)
module Sched_bench = struct
  module Heap = Past_stdext.Heap
  module Wheel = Past_stdext.Timing_wheel

  type ev = { time : float; seq : int }

  let leq a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq)

  (* ~1 event per tick on average, like the big simulations. *)
  let horizon pending = float_of_int pending

  (* Pre-drawn delay table so the timed loops measure the scheduler,
     not the RNG: both sides replay the same increments. *)
  let delays pending =
    let rng = Rng.create 7 in
    Array.init 65536 (fun _ -> Rng.float rng (horizon pending))

  let heap_cycle ~pending ~ops =
    let inc = delays pending in
    let h = Heap.create ~leq in
    let seq = ref 0 in
    let push time =
      Heap.push h { time; seq = !seq };
      incr seq
    in
    for i = 1 to pending do
      push inc.(i land 65535)
    done;
    let (), dt =
      timed (fun () ->
          for i = 1 to ops do
            match Heap.pop h with
            | Some e -> push (e.time +. Array.unsafe_get inc (i land 65535))
            | None -> assert false
          done)
    in
    float_of_int ops /. dt

  let wheel_cycle ~pending ~ops =
    let inc = delays pending in
    let w = Wheel.create () in
    let seq = ref 0 in
    let push time =
      Wheel.push w ~time ~seq:!seq { time; seq = !seq };
      incr seq
    in
    for i = 1 to pending do
      push inc.(i land 65535)
    done;
    let (), dt =
      timed (fun () ->
          for i = 1 to ops do
            match Wheel.pop w with
            | Some e -> push (e.time +. Array.unsafe_get inc (i land 65535))
            | None -> assert false
          done)
    in
    float_of_int ops /. dt

  (* Lazy cancellation: flip the live bit, fix the count. *)
  let cancel_cost () =
    let rng = Rng.create 9 in
    let n = 200_000 in
    let w = Wheel.create () in
    let handles =
      Array.init n (fun seq ->
          let time = Rng.float rng 1e6 in
          Wheel.push_handle w ~time ~seq { time; seq })
    in
    let (), dt = timed (fun () -> Array.iter (Wheel.cancel w) handles) in
    dt *. 1e9 /. float_of_int n

  let run row =
    List.iter
      (fun pending ->
        let ops = 300_000 in
        let heap = heap_cycle ~pending ~ops in
        let wheel = wheel_cycle ~pending ~ops in
        row (Printf.sprintf "scheduler pop+push, heap (%.0e pending)" (float_of_int pending))
          heap "ops/sec";
        row (Printf.sprintf "scheduler pop+push, wheel (%.0e pending)" (float_of_int pending))
          wheel "ops/sec";
        row (Printf.sprintf "scheduler wheel/heap speedup (%.0e pending)" (float_of_int pending))
          (wheel /. heap) "x")
      [ 10_000; 100_000; 1_000_000 ];
    row "scheduler cancel, wheel" (cancel_cost ()) "ns/op"
end

(* --- store-backend benchmarks ------------------------------------------- *)

(* The disk path the mega-scale EXP9/EXP10 run rides on: sustained
   distinct-id inserts (append + index update) on the log store vs the
   in-memory table, and a same-id replacement churn that generates
   ~95% garbage so size-triggered compaction runs repeatedly. *)
module Store_bench = struct
  module Store = Past_core.Store
  module Cert = Past_core.Certificate
  module Signer = Past_crypto.Signer

  let keypair = lazy (Signer.generate (Rng.create 4242) ~mode:`Insecure)

  let cert ~name ~size =
    let keypair = Lazy.force keypair in
    Cert.make_file ~keypair ~owner:(Signer.public keypair)
      ~owner_endorsement:(Bytes.of_string "bench") ~name ~data:"" ~declared_size:size
      ~replication:3 ~salt:"bench" ~now:0.0 ()

  let payload = String.make 4096 'x'

  let sustained ~backend ~label ~n row =
    let store = Store.create ~capacity:max_int ~backend () in
    let certs = Array.init n (fun i -> cert ~name:(Printf.sprintf "s-%d" i) ~size:4096) in
    let (), dt =
      timed (fun () ->
          Array.iter
            (fun c ->
              match Store.put store ~cert:c ~data:payload ~kind:Store.Primary with
              | Ok () -> ()
              | Error `Refused -> assert false)
            certs;
          Store.flush store)
    in
    row
      (Printf.sprintf "store sustained insert, %s (%d x 4 KiB)" label n)
      (float_of_int n /. dt) "ops/sec";
    Store.close store

  let churn row =
    let live = 2_000 and puts = 40_000 in
    let store =
      Store.create ~capacity:max_int
        ~backend:(Store.Log { dir = None; segment_target = Some (256 * 1024) })
        ()
    in
    let certs = Array.init live (fun i -> cert ~name:(Printf.sprintf "c-%d" i) ~size:4096) in
    let (), dt =
      timed (fun () ->
          for i = 0 to puts - 1 do
            match Store.put store ~cert:certs.(i mod live) ~data:payload ~kind:Store.Primary with
            | Ok () -> ()
            | Error `Refused -> assert false
          done;
          Store.flush store)
    in
    let s = match Store.log_stats store with Some s -> s | None -> assert false in
    row
      (Printf.sprintf "log store replace churn (%d puts, %d live)" puts live)
      (float_of_int puts /. dt) "ops/sec";
    row "log store churn compactions" (float_of_int s.Past_core.Log_store.compactions) "count";
    row "log store churn rewrite ratio"
      (if s.Past_core.Log_store.live_bytes = 0 then 0.0
       else
         float_of_int s.Past_core.Log_store.compacted_bytes
         /. float_of_int s.Past_core.Log_store.live_bytes)
      "x";
    Store.close store

  let run row =
    sustained ~backend:Store.Mem ~label:"mem" ~n:20_000 row;
    sustained ~backend:(Store.Log { dir = None; segment_target = None }) ~label:"log" ~n:20_000 row;
    churn row
end

let run_store () =
  print_endline "== store-backend benchmarks (wall clock, single run) ==";
  let table = Past_stdext.Text_table.create [ "benchmark"; "value"; "unit" ] in
  let row name value unit =
    record name ~unit value;
    Past_stdext.Text_table.add_row table [ name; Printf.sprintf "%.1f" value; unit ]
  in
  Store_bench.run row;
  Past_stdext.Text_table.print table

let run_macro () =
  print_endline "== macro-benchmarks (wall clock, single run) ==";
  let table = Past_stdext.Text_table.create [ "benchmark"; "value"; "unit" ] in
  let row name value unit =
    record name ~unit value;
    Past_stdext.Text_table.add_row table [ name; Printf.sprintf "%.1f" value; unit ]
  in
  (* Overlay construction: id sort, exact leaf sets, sampled routing
     tables and neighborhoods for 2000 nodes. *)
  let ov, dt = timed (fun () -> Harness_fixture.overlay 2000) in
  row "overlay build (N=2000)" (dt *. 1e3) "ms";
  (* Snapshot-bootstrap builds at scale: wall clock plus whole-sim
     bytes/node from the Gc live-words delta. (Obj.reachable_words
     would be quadratic here — every table reaches the overlay-shared
     peer directory — and the compare-to row "overlay bytes/node,
     pre-PR record layout" in BENCH_results.json was measured the same
     live-words way before the packed tables landed.) *)
  List.iter
    (fun n ->
      Gc.compact ();
      let words0 = (Gc.stat ()).Gc.live_words in
      let sv, dt =
        timed (fun () ->
            let sv : unit Past_pastry.Overlay.t =
              Past_pastry.Overlay.create ~trace_capacity:0 ~seed:42 ()
            in
            Past_pastry.Overlay.build_static ~dynamic_tail:0.01 sv ~n;
            sv)
      in
      Gc.compact ();
      let words1 = (Gc.stat ()).Gc.live_words in
      row (Printf.sprintf "overlay snapshot build (N=%d)" n) (dt *. 1e3) "ms";
      row
        (Printf.sprintf "overlay bytes/node (N=%d)" n)
        (float_of_int ((words1 - words0) * (Sys.word_size / 8) / n))
        "bytes";
      ignore (Sys.opaque_identity sv))
    [ 2_000; 20_000; 100_000 ];
  (* Routed-lookup throughput: random key from a random origin, event
     loop run to quiescence per lookup — the EXP1-style hot path. *)
  let lookups = 5000 in
  let (), dt =
    timed (fun () ->
        for _ = 1 to lookups do
          Harness_fixture.route_once ov
        done)
  in
  row "routed lookups (N=2000)" (float_of_int lookups /. dt) "ops/sec";
  (* Full-insert throughput: certificate issue, route to the k replica
     roots, store admission, acks — the EXP9 ingestion path. *)
  let fx = Harness_fixture.system 100 in
  let inserts = 2000 in
  let (), dt =
    timed (fun () ->
        for _ = 1 to inserts do
          Harness_fixture.insert_once fx
        done)
  in
  row "full PAST insert throughput (N=100, k=3)" (float_of_int inserts /. dt) "ops/sec";
  (* Event-scheduler throughput, heap vs timing wheel — the swap every
     big simulation's wall clock rides on. *)
  Sched_bench.run row;
  Past_stdext.Text_table.print table

let () =
  let args = Array.to_list Sys.argv in
  let micro_only = List.mem "--micro-only" args in
  let macro_only = List.mem "--macro-only" args in
  let tables_only = List.mem "--tables-only" args in
  let store_only = List.mem "--store-only" args in
  let json = List.mem "--json" args in
  let rec scale = function
    | "--scale" :: v :: _ -> (
      match float_of_string_opt v with
      | Some f when f > 0.0 && Float.is_finite f -> f
      | _ ->
        Printf.eprintf "--scale %S: expected a positive number\n" v;
        exit 2)
    | _ :: rest -> scale rest
    | [] -> 1.0
  in
  let scale = scale args in
  let all = not (micro_only || macro_only || tables_only || store_only) in
  if all || micro_only then run_micro ();
  if all || macro_only then begin
    if all || micro_only then print_newline ();
    run_macro ()
  end;
  if all || store_only then begin
    if all then print_newline ();
    run_store ()
  end;
  if all || tables_only then begin
    print_endline "\n== reproduced tables (one per paper claim; see EXPERIMENTS.md) ==";
    (* Per-experiment wall clock from the suite run lands in the JSON
       too, so the --jobs speedup stays tracked alongside the
       micro/macro numbers. *)
    let timings = Past_experiments.Report.run_all ~scale () in
    List.iter
      (fun (name, dt) -> record ("suite wall clock: " ^ name) ~unit:"ms" (dt *. 1e3))
      timings;
    record
      (Printf.sprintf "suite wall clock: total (jobs=%d)"
         (Past_stdext.Domain_pool.current_jobs ()))
      ~unit:"ms"
      (List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 timings *. 1e3)
  end;
  (* Written last so table-part timings are included when all parts run. *)
  if json then write_json "BENCH_results.json"
