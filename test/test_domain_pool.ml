(* Domain_pool: the order-preserving parallel map the experiment suite
   fans out over, plus the suite-level determinism property it buys:
   `past_sim all --json` is byte-identical across --jobs values. *)

module Domain_pool = Past_stdext.Domain_pool

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

(* Tasks early in the list sleep longest, so under any real parallelism
   later tasks finish first — the merge must still be submission-order. *)
let ordering_under_uneven_costs () =
  let pool = Domain_pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let items = List.init 24 Fun.id in
      let f i =
        if i < 4 then Unix.sleepf (0.05 *. float_of_int (4 - i));
        i * i
      in
      check (Alcotest.list Alcotest.int) "results in submission order" (List.map f items)
        (Domain_pool.map pool f items))

let exception_propagation () =
  let pool = Domain_pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      (* Several tasks fail; the lowest-indexed failure must surface,
         independent of completion order (index 3 sleeps longest). *)
      let f i =
        if i = 3 then begin
          Unix.sleepf 0.1;
          failwith "boom-3"
        end;
        if i = 11 then failwith "boom-11";
        i
      in
      Alcotest.check_raises "lowest-index exception wins" (Failure "boom-3") (fun () ->
          ignore (Domain_pool.map pool f (List.init 16 Fun.id))))

let jobs1_passthrough () =
  let pool = Domain_pool.create ~jobs:1 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      check Alcotest.int "clamped width" 1 (Domain_pool.jobs pool);
      let here = Domain.self () in
      let ran_elsewhere = ref false in
      let r =
        Domain_pool.map pool
          (fun i ->
            if not (Domain.self () = here) then ran_elsewhere := true;
            i + 1)
          [ 1; 2; 3; 4 ]
      in
      check (Alcotest.list Alcotest.int) "sequential result" [ 2; 3; 4; 5 ] r;
      check Alcotest.bool "every task ran in the calling domain" false !ran_elsewhere)

let pool_reuse () =
  let pool = Domain_pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      for round = 1 to 5 do
        let items = List.init (8 * round) (fun i -> i + round) in
        check (Alcotest.list Alcotest.int)
          (Printf.sprintf "round %d" round)
          (List.map (fun i -> 2 * i) items)
          (Domain_pool.map pool (fun i -> 2 * i) items)
      done;
      (* A failed map must not poison the pool for later maps. *)
      (try ignore (Domain_pool.map pool (fun _ -> failwith "once") [ 1; 2; 3 ]) with
      | Failure _ -> ());
      check (Alcotest.list Alcotest.int) "map after failure" [ 1; 2; 3 ]
        (Domain_pool.map pool Fun.id [ 1; 2; 3 ]))

(* A task that maps on the same pool: the caller-participates design
   means whoever waits also works, so this cannot deadlock even with
   every worker busy on outer tasks. *)
let nested_map () =
  let pool = Domain_pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let r =
        Domain_pool.map pool
          (fun i -> Domain_pool.map pool (fun j -> (10 * i) + j) [ 1; 2; 3 ])
          [ 1; 2; 3; 4 ]
      in
      check
        (Alcotest.list (Alcotest.list Alcotest.int))
        "nested results ordered"
        [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ]; [ 41; 42; 43 ] ]
        r)

let shared_pool_configuration () =
  Domain_pool.set_jobs 3;
  check Alcotest.int "current_jobs reflects set_jobs" 3 (Domain_pool.current_jobs ());
  check (Alcotest.list Alcotest.int) "map_shared ordered" [ 0; 1; 4; 9; 16 ]
    (Domain_pool.map_shared (fun i -> i * i) [ 0; 1; 2; 3; 4 ]);
  Domain_pool.set_jobs 1

(* The headline property of this layer: the full `past_sim all --json`
   payload at a fixed scale and fixed seeds is byte-identical whether
   the experiments run sequentially or fanned out over four domains —
   each row is an isolated (seed, overlay, registry) simulation and the
   pool merges rows in submission order. *)
let suite_json_identical_across_jobs () =
  Fun.protect
    ~finally:(fun () -> Domain_pool.set_jobs 1)
    (fun () ->
      Domain_pool.set_jobs 1;
      let sequential = Past_experiments.Report.all_json ~scale:0.05 () in
      Domain_pool.set_jobs 4;
      let parallel = Past_experiments.Report.all_json ~scale:0.05 () in
      if not (String.equal sequential parallel) then begin
        let n = Stdlib.min (String.length sequential) (String.length parallel) in
        let rec first_diff i =
          if i < n && sequential.[i] = parallel.[i] then first_diff (i + 1) else i
        in
        Alcotest.failf
          "past_sim all --json drifted between --jobs 1 and --jobs 4 (first difference at \
           byte %d; %d vs %d bytes)"
          (first_diff 0) (String.length sequential) (String.length parallel)
      end)

let suite =
  ( "domain_pool",
    [
      "ordering under uneven task costs" => ordering_under_uneven_costs;
      "exception propagation" => exception_propagation;
      "jobs=1 passthrough" => jobs1_passthrough;
      "pool reuse" => pool_reuse;
      "nested map" => nested_map;
      "shared pool configuration" => shared_pool_configuration;
      "suite JSON identical for --jobs 1 vs 4" => suite_json_identical_across_jobs;
    ] )
