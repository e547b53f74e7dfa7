(* Entry point assembling every suite.  Run with `dune runtest`; pass
   ALCOTEST_QUICK_TESTS=1 to skip the `Slow cases. *)

let () =
  Alcotest.run "bullfrog"
    [
      ("util", Test_util.suite);
      ("value", Test_value.suite);
      ("expr", Test_expr.suite);
      ("sql", Test_sql.suite);
      ("analysis", Test_analysis.suite);
      ("lint", Test_lint.suite);
      ("invert", Test_invert.suite);
      ("storage", Test_storage.suite);
      ("mvcc", Test_mvcc.suite);
      ("engine", Test_engine.suite);
      ("access", Test_access.suite);
      ("plan-cache", Test_plancache.suite);
      ("trackers", Test_trackers.suite);
      ("bullfrog", Test_bullfrog.suite);
      ("pair", Test_pair.suite);
      ("recovery", Test_recovery.suite);
      ("lazy-extra", Test_lazy_extra.suite);
      ("intercept", Test_intercept.suite);
      ("extensions", Test_extensions.suite);
      ("equivalence", Test_equivalence.suite);
      ("multistep-extra", Test_multistep_extra.suite);
      ("concurrency", Test_concurrency.suite);
      ("tpcc", Test_tpcc.suite);
      ("scenarios", Test_scenarios.suite);
      ("harness", Test_harness.suite);
      ("obs", Test_obs.suite);
      ("cluster", Test_cluster.suite);
      ("server", Test_server.suite);
    ]
