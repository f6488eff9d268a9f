module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

let draws rng n = List.init n (fun _ -> Rng.bits64 rng)

(* 64 draws colliding more than a few times would mean correlated
   streams. *)
let decorrelated a b =
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  !same < 4

let determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let distinct_seeds () =
  check Alcotest.bool "streams differ" true (decorrelated (Rng.create 1) (Rng.create 2))

let copy_replays () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy equal" (Rng.bits64 a) (Rng.bits64 b)

let split_diverges () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check Alcotest.bool "split differs" true (decorrelated a b)

let int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let int_covers_all () =
  let rng = Rng.create 5 in
  let seen = Array.make 7 false in
  for _ = 1 to 5000 do
    seen.(Rng.int rng 7) <- true
  done;
  Array.iteri (fun i s -> check Alcotest.bool (Printf.sprintf "value %d seen" i) true s) seen

let int_in_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let int_rejects_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let chance_extremes () =
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Rng.chance rng 0.0)
  done

let chance_estimates () =
  let rng = Rng.create 19 in
  let hits = ref 0 in
  for _ = 1 to 20_000 do
    if Rng.chance rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 20_000.0 in
  check Alcotest.bool "p close to 0.3" true (abs_float (p -. 0.3) < 0.02)

let shuffle_permutes () =
  let rng = Rng.create 23 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 50 Fun.id) sorted

let shuffle_moves_things () =
  let rng = Rng.create 29 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle rng arr;
  check Alcotest.bool "not identity" true (arr <> Array.init 100 Fun.id)

let sample_distinct () =
  let rng = Rng.create 31 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement rng 10 30 in
    check Alcotest.int "count" 10 (List.length s);
    check Alcotest.int "distinct" 10 (List.length (List.sort_uniq compare s));
    List.iter (fun v -> if v < 0 || v >= 30 then Alcotest.failf "bad %d" v) s
  done

let sample_full_range () =
  let rng = Rng.create 37 in
  let s = Rng.sample_without_replacement rng 10 10 in
  check (Alcotest.list Alcotest.int) "all elements" (List.init 10 Fun.id) (List.sort compare s)

let pick_from_singleton () =
  let rng = Rng.create 41 in
  check Alcotest.int "singleton" 9 (Rng.pick rng [| 9 |]);
  check Alcotest.int "singleton list" 9 (Rng.pick_list rng [ 9 ])

let bytes_length () =
  let rng = Rng.create 43 in
  check Alcotest.int "length" 33 (Bytes.length (Rng.bytes rng 33))

let qcheck_int_in =
  QCheck.Test.make ~name:"int_in always within bounds" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 0 1000))
    (fun (lo, extent) ->
      let rng = Rng.create (lo + extent) in
      let v = Rng.int_in rng lo (lo + extent) in
      v >= lo && v <= lo + extent)

(* Rng.derive: the per-trial stream of the experiments' parallel loops.
   A trial's world must be a pure function of (seed, salt) — the same
   values in any order, on any domain, which is what makes --jobs N
   byte-identical — and distinct salts must give independent samples. *)
let arb_seed = QCheck.int_range 0 0x3FFFFFFF
let arb_salt = QCheck.int_range 0 10_000

let qcheck_derive_replays =
  QCheck.Test.make ~name:"derive replays identically" ~count:200 (QCheck.pair arb_seed arb_salt)
    (fun (seed, salt) ->
      draws (Rng.derive (Rng.create seed) ~salt) 32
      = draws (Rng.derive (Rng.create seed) ~salt) 32)

let qcheck_derive_salts_differ =
  QCheck.Test.make ~name:"derive distinct salts differ" ~count:200
    (QCheck.triple arb_seed arb_salt arb_salt) (fun (seed, i, j) ->
      QCheck.assume (i <> j);
      let parent = Rng.create seed in
      decorrelated (Rng.derive parent ~salt:i) (Rng.derive parent ~salt:j))

let qcheck_derive_parents_differ =
  QCheck.Test.make ~name:"derive distinct parents differ" ~count:200
    (QCheck.triple arb_seed arb_seed arb_salt) (fun (s1, s2, salt) ->
      QCheck.assume (s1 <> s2);
      decorrelated (Rng.derive (Rng.create s1) ~salt) (Rng.derive (Rng.create s2) ~salt))

let derive_keeps_parent () =
  let a = Rng.create 77 in
  let b = Rng.copy a in
  let child = Rng.derive a ~salt:5 in
  check (Alcotest.list Alcotest.int64) "parent not advanced" (draws b 16) (draws a 16);
  check Alcotest.bool "child differs from parent" true (decorrelated a child)

(* Bit balance: across many salts, the first draw's bits should be
   roughly half ones — a cheap screen against a degenerate mixer. *)
let derive_bit_balance () =
  let parent = Rng.create 5 in
  let ones = ref 0 in
  for salt = 0 to 999 do
    let v = Rng.bits64 (Rng.derive parent ~salt) in
    for b = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical v b) 1L = 1L then incr ones
    done
  done;
  let frac = float_of_int !ones /. 64_000.0 in
  check Alcotest.bool
    (Printf.sprintf "ones fraction %.3f in [0.48, 0.52]" frac)
    true
    (frac > 0.48 && frac < 0.52)

let suite =
  ( "rng",
    [
      "determinism" => determinism;
      "distinct seeds" => distinct_seeds;
      "copy replays" => copy_replays;
      "split diverges" => split_diverges;
      "int bounds" => int_bounds;
      "int covers all values" => int_covers_all;
      "int_in bounds" => int_in_bounds;
      "int rejects bad bound" => int_rejects_bad_bound;
      "float bounds" => float_bounds;
      "chance p=0" => chance_extremes;
      "chance estimate" => chance_estimates;
      "shuffle permutes" => shuffle_permutes;
      "shuffle moves" => shuffle_moves_things;
      "sample distinct" => sample_distinct;
      "sample full range" => sample_full_range;
      "pick singleton" => pick_from_singleton;
      "bytes length" => bytes_length;
      QCheck_alcotest.to_alcotest qcheck_int_in;
      "derive keeps parent" => derive_keeps_parent;
      "derive bit balance across salts" => derive_bit_balance;
      QCheck_alcotest.to_alcotest qcheck_derive_replays;
      QCheck_alcotest.to_alcotest qcheck_derive_salts_differ;
      QCheck_alcotest.to_alcotest qcheck_derive_parents_differ;
    ] )
