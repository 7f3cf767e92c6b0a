let () =
  Alcotest.run "alias_reconsidered"
    [
      ("support", Test_support.tests);
      ("lexer", Test_lexer.tests);
      ("preproc", Test_preproc.tests);
      ("parser", Test_parser.tests);
      ("sema", Test_sema.tests);
      ("ast-print", Test_ast_print.tests);
      ("norm", Test_norm.tests);
      ("apath", Test_apath.tests);
      ("cfg-dom", Test_cfg_dom.tests);
      ("vdg", Test_vdg.tests);
      ("ptset", Test_ptset.tests);
      ("ci-solver", Test_ci.tests);
      ("par-solver", Test_par_solver.tests);
      ("cs-solver", Test_cs.tests);
      ("baseline", Test_baseline.tests);
      ("interp", Test_interp.tests);
      ("workload", Test_workload.tests);
      ("stats", Test_stats.tests);
      ("query", Test_query.tests);
      ("misc", Test_misc.tests);
      ("integration", Test_integration.tests);
      ("engine", Test_engine.tests);
      ("budget", Test_budget.tests);
      ("checkers", Test_checkers.tests);
      ("server", Test_server.tests);
      ("incr", Test_incr.tests);
      ("oracle", Test_oracle.tests);
    ]
