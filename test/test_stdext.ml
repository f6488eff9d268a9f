(* Dist, Stats, Heap and Text_table. *)

module Rng = Past_stdext.Rng
module Dist = Past_stdext.Dist
module Stats = Past_stdext.Stats
module Text_table = Past_stdext.Text_table

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f
let close ?(eps = 1e-9) name a b = check Alcotest.bool name true (abs_float (a -. b) < eps)

(* --- Dist --- *)

let zipf_pmf_sums_to_one () =
  let z = Dist.zipf ~s:1.0 ~n:50 in
  let total = List.fold_left (fun acc r -> acc +. Dist.zipf_pmf z r) 0.0 (List.init 50 (fun i -> i + 1)) in
  close ~eps:1e-6 "sums to 1" total 1.0

let zipf_rank1_most_popular () =
  let z = Dist.zipf ~s:1.2 ~n:100 in
  check Alcotest.bool "pmf decreasing" true (Dist.zipf_pmf z 1 > Dist.zipf_pmf z 2);
  check Alcotest.bool "pmf decreasing tail" true (Dist.zipf_pmf z 50 > Dist.zipf_pmf z 100)

let zipf_draw_in_range () =
  let z = Dist.zipf ~s:0.8 ~n:30 in
  let rng = Rng.create 1 in
  for _ = 1 to 5000 do
    let r = Dist.zipf_draw z rng in
    if r < 1 || r > 30 then Alcotest.failf "rank out of range: %d" r
  done

let zipf_empirical_matches_pmf () =
  let z = Dist.zipf ~s:1.0 ~n:10 in
  let rng = Rng.create 2 in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let r = Dist.zipf_draw z rng in
    counts.(r - 1) <- counts.(r - 1) + 1
  done;
  for r = 1 to 10 do
    let emp = float_of_int counts.(r - 1) /. float_of_int n in
    let exp = Dist.zipf_pmf z r in
    if abs_float (emp -. exp) > 0.01 then
      Alcotest.failf "rank %d: empirical %.4f vs pmf %.4f" r emp exp
  done

let exponential_mean () =
  let rng = Rng.create 3 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Dist.exponential rng ~rate:2.0)
  done;
  check Alcotest.bool "mean near 0.5" true (abs_float (Stats.mean s -. 0.5) < 0.02)

let pareto_min () =
  let rng = Rng.create 4 in
  for _ = 1 to 5000 do
    if Dist.pareto rng ~alpha:1.5 ~x_min:10.0 < 10.0 then Alcotest.fail "below x_min"
  done

let normal_moments () =
  let rng = Rng.create 5 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Dist.normal rng ~mean:3.0 ~stddev:2.0)
  done;
  check Alcotest.bool "mean" true (abs_float (Stats.mean s -. 3.0) < 0.05);
  check Alcotest.bool "stddev" true (abs_float (Stats.stddev s -. 2.0) < 0.05)

let lognormal_positive () =
  let rng = Rng.create 6 in
  for _ = 1 to 5000 do
    if Dist.lognormal rng ~mu:2.0 ~sigma:1.0 <= 0.0 then Alcotest.fail "not positive"
  done

(* --- Stats --- *)

let stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  close "mean" (Stats.mean s) 2.5;
  close "total" (Stats.total s) 10.0;
  check Alcotest.int "count" 4 (Stats.count s);
  close "min" (Stats.min s) 1.0;
  close "max" (Stats.max s) 4.0;
  close "median" (Stats.median s) 2.0;
  close ~eps:1e-6 "stddev" (Stats.stddev s) (sqrt 1.25)

let stats_empty () =
  let s = Stats.create () in
  close "mean 0" (Stats.mean s) 0.0;
  close "stddev 0" (Stats.stddev s) 0.0;
  Alcotest.check_raises "min raises" (Invalid_argument "Stats.min: empty") (fun () ->
      ignore (Stats.min s))

let stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add_int s i
  done;
  close "p50" (Stats.percentile s 50.0) 50.0;
  close "p95" (Stats.percentile s 95.0) 95.0;
  close "p100" (Stats.percentile s 100.0) 100.0;
  close "p0 -> first" (Stats.percentile s 0.0) 1.0

let stats_insertion_order () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.0; 1.0; 2.0 ];
  check (Alcotest.list (Alcotest.float 0.0)) "to_list order" [ 3.0; 1.0; 2.0 ] (Stats.to_list s)

(* --- Heap --- *)

let heap_pops_sorted () =
  let h = Heap.create ~leq:(fun a b -> a <= b) in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let heap_peek () =
  let h = Heap.create ~leq:(fun a b -> a <= b) in
  check (Alcotest.option Alcotest.int) "empty peek" None (Heap.peek h);
  Heap.push h 4;
  Heap.push h 2;
  check (Alcotest.option Alcotest.int) "peek min" (Some 2) (Heap.peek h);
  check Alcotest.int "peek does not pop" 2 (Heap.length h)

let heap_clear () =
  let h = Heap.create ~leq:(fun a b -> a <= b) in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  check Alcotest.bool "empty" true (Heap.is_empty h);
  check (Alcotest.option Alcotest.int) "pop none" None (Heap.pop h)

let heap_qcheck =
  QCheck.Test.make ~name:"heap sorts like List.sort" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.create ~leq:(fun a b -> a <= b) in
      List.iter (Heap.push h) l;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare l)

let heap_max_variant () =
  let h = Heap.create ~leq:(fun a b -> a >= b) in
  List.iter (Heap.push h) [ 3; 9; 1 ];
  check (Alcotest.option Alcotest.int) "max first" (Some 9) (Heap.pop h)

(* --- Text_table --- *)

let table_renders () =
  let t = Text_table.create [ "a"; "bb" ] in
  Text_table.add_row t [ "1"; "2" ];
  Text_table.add_rowf t "%d|%s" 33 "four";
  let out = Text_table.render t in
  check Alcotest.bool "has header" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "line count" 5 (List.length lines) (* header, sep, 2 rows, trailing *)

let table_pads_short_rows () =
  let t = Text_table.create [ "x"; "y"; "z" ] in
  Text_table.add_row t [ "only" ];
  let out = Text_table.render t in
  check Alcotest.bool "renders" true (String.length out > 0)

let suite =
  ( "stdext",
    [
      "zipf pmf sums to 1" => zipf_pmf_sums_to_one;
      "zipf rank 1 most popular" => zipf_rank1_most_popular;
      "zipf draw in range" => zipf_draw_in_range;
      "zipf empirical matches pmf" => zipf_empirical_matches_pmf;
      "exponential mean" => exponential_mean;
      "pareto respects x_min" => pareto_min;
      "normal moments" => normal_moments;
      "lognormal positive" => lognormal_positive;
      "stats basics" => stats_basic;
      "stats empty" => stats_empty;
      "stats percentile" => stats_percentile;
      "stats insertion order" => stats_insertion_order;
      "heap pops sorted" => heap_pops_sorted;
      "heap peek" => heap_peek;
      "heap clear" => heap_clear;
      "heap max variant" => heap_max_variant;
      QCheck_alcotest.to_alcotest heap_qcheck;
      "table renders" => table_renders;
      "table pads short rows" => table_pads_short_rows;
    ] )
