let () =
  Alcotest.run "kamping-ocaml"
    [
      ("ds", Test_ds.suite);
      ("simnet", Test_simnet.suite);
      ("serde", Test_serde.suite);
      ("mpisim", Test_mpisim.suite);
      ("msg", Test_msg.suite);
      ("coll-algos", Test_coll_algos.suite);
      ("kamping", Test_kamping.suite);
      ("plugins", Test_plugins.suite);
      ("graphgen", Test_graphgen.suite);
      ("apps", Test_apps.suite);
      ("extensions", Test_extensions.suite);
      ("cart", Test_cart.suite);
      ("win", Test_win.suite);
      ("building-blocks", Test_building_blocks.suite);
      ("checker", Test_checker.suite);
      ("ckpt", Test_ckpt.suite);
      ("trace", Test_trace.suite);
      ("scenarios", Test_scenarios.suite);
      ("sweep", Test_sweep.suite);
      ("properties", Test_properties.suite);
      ("bindings", Test_bindings.suite);
      ("group", Test_group.suite);
      ("explore", Test_explore.suite);
      ("serve", Test_serve.suite);
      ("stress", Test_stress.suite);
      ("engine-scale", Test_engine_scale.suite);
      ("persist", Test_persist.suite);
      ("requests", Test_requests.suite);
      ("topology", Test_topology.suite);
      ("bench-report", Test_bench_report.suite);
      ("coll-schedules", Test_coll_schedules.suite);
      ("wrappers", Test_wrappers.suite);
    ]
