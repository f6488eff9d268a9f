(* Aggregate all test suites into one alcotest binary. *)

let () =
  Alcotest.run "past"
    [
      Test_rng.suite;
      Test_stdext.suite;
      Test_timing_wheel.suite;
      Test_domain_pool.suite;
      Test_nat.suite;
      Test_crypto.suite;
      Test_id.suite;
      Test_simnet.suite;
      Test_churn.suite;
      Test_telemetry.suite;
      Test_pastry_state.suite;
      Test_pastry_overlay.suite;
      Test_certificates.suite;
      Test_store_cache.suite;
      Test_log_store.suite;
      Test_past_system.suite;
      Test_workload.suite;
      Test_experiments.suite;
      Test_security.suite;
      Test_robustness.suite;
      Test_alloc.suite;
    ]
