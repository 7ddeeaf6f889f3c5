let () =
  Alcotest.run "lsi-quality"
    (Test_stats.suite @ Test_circuit.suite @ Test_logicsim.suite @ Test_faults.suite @ Test_fsim.suite @ Test_tpg.suite @ Test_fab.suite @ Test_tester.suite @ Test_quality.suite @ Test_report.suite @ Test_experiments.suite @ Test_diagnosis.suite @ Test_lint.suite @ Test_analysis.suite @ Test_testability.suite @ Test_bdd.suite @ Test_obs.suite @ Test_robust.suite)
