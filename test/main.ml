let () =
  Alcotest.run "statleak"
    (List.concat
       [
         Test_util.suite;
         Test_netlist.suite;
         Test_tech.suite;
         Test_variation.suite;
         Test_sta.suite;
         Test_ssta.suite;
         Test_lanes.suite;
         Test_incremental.suite;
         Test_hier.suite;
         Test_leakage.suite;
         Test_mc.suite;
         Test_yield.suite;
         Test_opt.suite;
         Test_batch_opt.suite;
         Test_core.suite;
         Test_extensions.suite;
         Test_activity.suite;
         Test_golden.suite;
         Test_printers.suite;
         Test_obs.suite;
         Test_serve.suite;
         Test_cli.suite;
       ])
