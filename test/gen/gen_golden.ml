(* Regenerates the determinism golden fixtures:

     dune exec test/gen/gen_golden.exe > test/exp1_hops.golden
     dune exec test/gen/gen_golden.exe -- churn > test/exp14_churn.golden
     dune exec test/gen/gen_golden.exe -- scale > test/exp15_scale.golden
     dune exec test/gen/gen_golden.exe -- caching > test/exp11_caching.golden

   See Past_experiments.Report.determinism_fixture (EXP1),
   Report.churn_fixture (EXP14), Exp_scale.route_dump (EXP15) and
   Report.caching_fixture (EXP11) for
   what each covers and when regeneration is legitimate. *)

let () =
  match Sys.argv with
  | [| _ |] -> print_string (Past_experiments.Report.determinism_fixture ())
  | [| _; "churn" |] -> print_string (Past_experiments.Report.churn_fixture ())
  | [| _; "scale" |] -> print_string (Past_experiments.Exp_scale.route_dump ())
  | [| _; "caching" |] -> print_string (Past_experiments.Report.caching_fixture ())
  | _ ->
    prerr_endline "usage: gen_golden.exe [churn|scale|caching]";
    exit 2
