(* Suites whose steps block, cancel, pipeline or record lanes; each
   also runs a pool-scheduler leg (see Legs). *)
let pooled =
  [ "queue"; "executor"; "scheduler"; "session"; "data"; "tracer"; "faults";
    "metrics"; "serving"; "parts"; "dispatch"; "in_place" ]

let () =
  Alcotest.run "octf"
    (Legs.with_pool_legs ~pooled
     [
       ("smoke", Test_smoke.suite);
       ("shape", Test_shape.suite);
       ("tensor", Test_tensor.suite);
       ("rng", Test_rng.suite);
       ("tensor_ops", Test_tensor_ops.suite);
       ("elementwise", Test_elementwise.suite);
       ("data_movement", Test_data_movement.suite);
       ("intra_op", Test_intra_op.suite);
       ("graph", Test_graph.suite);
       ("device", Test_device.suite);
       ("queue", Test_queue.suite);
       ("resource", Test_resource.suite);
       ("checkpoint", Test_checkpoint.suite);
       ("placement", Test_placement.suite);
       ("partition", Test_partition.suite);
       ("executor", Test_executor.suite);
       ("dispatch", Test_dispatch.suite);
       ("scheduler", Test_scheduler.suite);
       ("gradients", Test_gradients.suite);
       ("session", Test_session.suite);
       ("env", Test_env.suite);
       ("optimizer", Test_optimizer.suite);
       ("sparse_updates", Test_sparse_updates.suite);
       ("in_place", Test_sparse_updates.in_place_suite);
       ("saver", Test_saver.suite);
       ("sync_replicas", Test_sync.suite);
       ("nn", Test_nn.suite);
       ("data", Test_data.suite);
       ("models", Test_models.suite);
       ("sim", Test_sim.suite);
       ("graph_optimizer", Test_optimizer_passes.suite);
       ("fusion", Test_fusion.suite);
       ("cluster", Test_cluster.suite);
       ("parts", Test_parts.suite);
       ("tracer", Test_tracer.suite);
       ("quantization", Test_quant.suite);
       ("quant_accuracy", Test_quant_accuracy.suite);
       ("records", Test_records.suite);
       ("schedule", Test_schedule.suite);
       ("shape_inference", Test_shape_inference.suite);
       ("tensor_array", Test_tensor_array.suite);
       ("kernels_misc", Test_kernels_misc.suite);
       ("nn_extra", Test_nn_extra.suite);
       ("timer", Test_timer.suite);
       ("faults", Test_faults.suite);
       ("metrics", Test_metrics.suite);
       ("differential", Test_differential.suite);
       ("gradcheck", Test_gradcheck.suite);
       ("net", Test_net.suite);
       ("serving", Test_serving.suite);
     ])
