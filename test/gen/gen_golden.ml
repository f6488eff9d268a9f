(* Regenerates the determinism golden fixtures:

     dune exec test/gen/gen_golden.exe > test/exp1_hops.golden
     dune exec test/gen/gen_golden.exe -- churn > test/exp14_churn.golden
     dune exec test/gen/gen_golden.exe -- scale > test/exp15_scale.golden
     dune exec test/gen/gen_golden.exe -- caching > test/exp11_caching.golden

   The fixtures live in test/golden/golden.ml, shared with the test
   suite: see Golden.determinism_fixture (EXP1), Golden.churn_fixture
   (EXP14), Golden.route_dump (EXP15) and Golden.caching_fixture (EXP11)
   for what each covers and when regeneration is legitimate. The EXP14
   run revives nodes through its churn plan alone: the network's
   liveness observers run every rejoin. *)

let () =
  match Sys.argv with
  | [| _ |] -> print_string (Golden.determinism_fixture ())
  | [| _; "churn" |] -> print_string (Golden.churn_fixture ())
  | [| _; "scale" |] -> print_string (Golden.route_dump ())
  | [| _; "caching" |] -> print_string (Golden.caching_fixture ())
  | _ ->
    prerr_endline "usage: gen_golden.exe [churn|scale|caching]";
    exit 2
