let () =
  Alcotest.run "whiteboard"
    (List.concat
       [ Test_support.suites;
         Test_bignum.suites;
         Test_graph.suites;
         Test_model.suites;
         Test_kernel.suites;
         Test_protocols.suites;
         Test_reductions.suites;
         Test_sat.suites;
         Test_synth.suites;
         Test_congest.suites;
         Test_extensions.suites;
         Test_robustness.suites;
         Test_obs.suites;
         Test_prof.suites;
         Test_cost.suites;
         Test_bench.suites;
         Test_net.suites;
         Test_chaos.suites;
         Test_lint.suites ])
