let () =
  Alcotest.run "sinr_local_broadcast"
    [ ("geom", Test_geom.suite);
      ("graph", Test_graph.suite);
      ("stats", Test_stats.suite);
      ("phys", Test_phys.suite);
      ("engine", Test_engine.suite);
      ("mis", Test_mis.suite);
      ("mac", Test_mac.suite);
      ("proto", Test_proto.suite);
      ("mac_ext", Test_mac_ext.suite);
      ("expt", Test_expt.suite);
      ("phys_ext", Test_phys_ext.suite);
      ("proto_ext", Test_proto_ext.suite);
      ("spec", Test_spec.suite);
      ("epoch", Test_epoch.suite);
      ("engine_ext", Test_engine_ext.suite);
      ("decay_mac", Test_decay_mac.suite);
      ("mis_ext", Test_mis_ext.suite);
      ("expt_e2e", Test_expt_e2e.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("par", Test_par.suite);
      ("chaos", Test_chaos.suite);
      ("phys_fast", Test_phys_fast.suite);
      ("serve", Test_serve.suite);
      ("job_log", Test_job_log.suite);
      ("scale", Test_scale.suite);
      ("active", Test_active.suite);
      ("outcome", Test_outcome.suite);
      ("setup", Test_setup.suite);
      ("cli", Test_cli.suite) ]
