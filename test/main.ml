let () =
  Alcotest.run "maestro"
    [
      ("bitvec", Test_bitvec.suite);
      ("gf2", Test_gf2.suite);
      ("packet", Test_packet.suite);
      ("codec", Test_codec.suite);
      ("nic", Test_nic.suite);
      ("dsl", Test_dsl.suite);
      ("compile", Test_compile.suite);
      ("state", Test_state.suite);
      ("symbex", Test_symbex.suite);
      ("nfs", Test_nfs.suite);
      ("nfs-edge", Test_nfs_edge.suite);
      ("registry", Test_registry.suite);
      ("chain", Test_chain.suite);
      ("rs3", Test_rs3.suite);
      ("pipeline", Test_pipeline.suite);
      ("codegen", Test_codegen.suite);
      ("runtime", Test_runtime.suite);
      ("binding", Test_binding.suite);
      ("rebalance", Test_rebalance.suite);
      ("adaptive", Test_adaptive.suite);
      ("faults", Test_faults.suite);
      ("cluster", Test_cluster.suite);
      ("scr", Test_scr.suite);
      ("traffic", Test_traffic.suite);
      ("sim", Test_sim.suite);
      ("vpp", Test_vpp.suite);
      ("experiments", Test_experiments.suite);
      ("sat", Test_sat.suite);
      ("telemetry", Test_telemetry.suite);
      ("benchdiff", Test_benchdiff.suite);
      ("harness", Test_differential.suite);
    ]
