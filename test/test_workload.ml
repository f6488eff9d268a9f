module Sizes = Past_workload.Sizes
module Capacities = Past_workload.Capacities
module Popularity = Past_workload.Popularity
module Rng = Past_stdext.Rng
module Stats = Past_stdext.Stats

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let sizes_positive () =
  let rng = Rng.create 1 in
  List.iter
    (fun (name, dist) ->
      for _ = 1 to 2000 do
        let v = Sizes.draw dist rng in
        if v < 1 then Alcotest.failf "%s produced %d" name v
      done)
    [ ("web_proxy", Sizes.web_proxy ()) ]

let sizes_web_proxy_mean () =
  let rng = Rng.create 2 in
  let s = Stats.create () in
  let d = Sizes.web_proxy () in
  for _ = 1 to 30_000 do
    Stats.add_int s (Sizes.draw d rng)
  done;
  (* heavy-tailed: mean is noisy, accept a broad band around 10 kB *)
  let m = Stats.mean s in
  check Alcotest.bool (Printf.sprintf "mean %.0f in [5k, 40k]" m) true (m > 5_000.0 && m < 40_000.0);
  check Alcotest.bool "median well below mean (heavy tail)" true (Stats.median s < m)

let sizes_custom () =
  let rng = Rng.create 4 in
  let c = Sizes.custom (fun _ -> 5) in
  check Alcotest.int "custom sampler" 5 (Sizes.draw c rng)

let capacities_truncation () =
  let rng = Rng.create 5 in
  let c = Capacities.normal_truncated ~mean:1000 ~cv:2.0 in
  for _ = 1 to 5000 do
    let v = Capacities.draw c rng in
    if v < 100 || v > 10_000 then Alcotest.failf "outside truncation: %d" v
  done

let popularity_zipf () =
  let rng = Rng.create 8 in
  let p = Popularity.zipf ~s:1.0 ~n:20 in
  let counts = Array.make 20 0 in
  for _ = 1 to 20_000 do
    let i = Popularity.draw p rng in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.bool "rank 0 most popular" true (counts.(0) > counts.(5));
  check Alcotest.bool "long tail exists" true (counts.(19) > 0)

module Generator = Past_workload.Generator

let generator_schedule_ordered () =
  let rng = Rng.create 10 in
  let events = Generator.schedule Generator.default_profile ~rng ~horizon:500.0 in
  check Alcotest.bool "non-empty" true (events <> []);
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.Generator.at <= b.Generator.at && ordered rest
    | _ -> true
  in
  check Alcotest.bool "sorted by time" true (ordered events);
  List.iter
    (fun e ->
      if e.Generator.at < 0.0 || e.Generator.at >= 500.0 then Alcotest.fail "outside horizon")
    events

let generator_first_op_is_insert () =
  let rng = Rng.create 11 in
  match Generator.schedule Generator.default_profile ~rng ~horizon:1000.0 with
  | { Generator.op = Generator.Insert _; _ } :: _ -> ()
  | _ :: _ -> Alcotest.fail "lookup/reclaim before any insert"
  | [] -> Alcotest.fail "empty schedule"

let generator_lookup_targets_valid () =
  let rng = Rng.create 12 in
  let events = Generator.schedule Generator.default_profile ~rng ~horizon:2000.0 in
  let catalog = ref 0 in
  List.iter
    (fun e ->
      match e.Generator.op with
      | Generator.Insert _ -> incr catalog
      | Generator.Lookup { catalog_index } | Generator.Reclaim { catalog_index } ->
        if catalog_index < 0 || catalog_index >= !catalog then
          Alcotest.failf "target %d outside catalog of %d" catalog_index !catalog)
    events

let generator_mix_respected () =
  let rng = Rng.create 13 in
  let events = Generator.schedule Generator.default_profile ~rng ~horizon:20_000.0 in
  let ins = ref 0 and lk = ref 0 and rc = ref 0 in
  List.iter
    (fun e ->
      match e.Generator.op with
      | Generator.Insert _ -> incr ins
      | Generator.Lookup _ -> incr lk
      | Generator.Reclaim _ -> incr rc)
    events;
  let total = float_of_int (!ins + !lk + !rc) in
  check Alcotest.bool "lookups dominate" true (float_of_int !lk /. total > 0.6);
  check Alcotest.bool "reclaims rare" true (float_of_int !rc /. total < 0.12)

let suite =
  ( "workload",
    [
      "sizes positive" => sizes_positive;
      "web proxy mean" => sizes_web_proxy_mean;
      "custom sizes" => sizes_custom;
      "capacities truncation" => capacities_truncation;
      "popularity zipf" => popularity_zipf;
      "generator schedule ordered" => generator_schedule_ordered;
      "generator first op is insert" => generator_first_op_is_insert;
      "generator targets valid" => generator_lookup_targets_valid;
      "generator mix respected" => generator_mix_respected;
    ] )
