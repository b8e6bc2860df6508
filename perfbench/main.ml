(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--host KEY=VALUE]...

   Runs one workload, checks its outputs, prints a run-record line and
   then, as the last line, the result object: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. perfbench/run.py
   builds this program and checks the result against BENCHMARK.json. *)

let workloads =
  [
    ("train_convnet", Convnet.run);
    ("train_lm_ps", Lm_ps.run);
    ("serve_rnn", Serve.run_rnn);
    ("serve_cnn_int8", Serve.run_cnn_int8);
  ]

let end_to_end_units =
  [
    ("setup_s", "s"); ("items_per_s", "1/s"); ("latency_p90_ms", "ms");
    ("latency_tail_ms", "ms"); ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric. A workload reports the layers that do work on
   it; the others read 0 — their layer ran no kernel, sent nothing,
   served nothing. *)
let per_layer_units =
  [
    ("session.compile_ms", "ms");
    ("graph_optimizer.kernels_per_step", "count");
    ("graph_optimizer.fused_groups", "count");
    ("serving.freeze_ms", "ms");
    ("quant_kernels.calibrate_ms", "ms");
    ("executor.step_ms", "ms");
    ("executor.kernel_ms", "ms");
    ("executor.overhead_ms", "ms");
    ("executor.overhead_us_per_kernel", "us");
    ("executor.untraced_step_ms", "ms");
    ("executor.trace_overhead_ms", "ms");
    ("tensor.conv_ms", "ms");
    ("tensor.conv_grad_ms", "ms");
    ("tensor.matmul_ms", "ms");
    ("tensor.elementwise_ms", "ms");
    ("tensor.pool_ms", "ms");
    ("tensor.array_ms", "ms");
    ("tensor.reduce_ms", "ms");
    ("state_kernels.update_ms", "ms");
    ("quant_kernels.kernel_ms", "ms");
    ("quant_kernels.islands", "count");
    ("quant_kernels.speedup_vs_float", "ratio");
    ("rendezvous.sends_per_step", "count");
    ("rendezvous.bytes_per_step", "B");
    ("rendezvous.send_ms", "ms");
    ("rendezvous.recv_ms", "ms");
    ("serving.mean_batch", "count");
    ("serving.requests", "count");
    ("serving.batches", "count");
    ("serving.batch_step_ms", "ms");
    ("serving.queue_ms", "ms");
    ("serving.rejected", "count");
    ("serving.failed", "count");
    ("mem_plan.peak_live_mb", "MB");
    ("mem_plan.inplace_grants_per_step", "count");
    ("buffer_pool.hit_ratio", "ratio");
    ("buffer_pool.hits", "count");
    ("buffer_pool.misses", "count");
    ("gc.minor_mb_per_item", "MB");
    ("gc.major_per_1k_items", "count");
    ("tensor.matmul_flop", "flop");
    ("tensor.matmul_bytes", "B");
    ("tensor.matmul_gflops", "GFLOP/s");
    ("tensor.conv_flop", "flop");
    ("tensor.conv_bytes", "B");
    ("tensor.conv_gflops", "GFLOP/s");
    ("quant_kernels.matmul_ops", "op");
    ("quant_kernels.matmul_bytes", "B");
    ("quant_kernels.matmul_gops", "GOP/s");
  ]

(* JSON numbers carry every digit OCaml prints; a non-finite value would
   not be JSON and marks the run as failed instead. *)
let json_number v = Printf.sprintf "%.17g" v

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--host KEY=VALUE]...";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and host = ref [] in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string_opt v; parse tl
    | "--seconds" :: v :: tl -> seconds := float_of_string_opt v; parse tl
    | "--trace" :: ("0" | "1" as v) :: tl -> trace := Some (v = "1"); parse tl
    | "--host" :: kv :: tl -> (
        match String.index_opt kv '=' with
        | Some i ->
            host :=
              (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
              :: !host;
            parse tl
        | None -> usage ())
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  Harness.pin_process ();
  let o : Harness.outcome = run ~seed ~seconds ~trace in
  let units = if trace then per_layer_units else end_to_end_units in
  let metrics =
    List.map
      (fun (name, unit_) ->
        (name, unit_, Option.value ~default:0.0 (List.assoc_opt name o.metrics)))
      units
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct = finite && o.failed = 0 && List.for_all snd o.checks in
  let str s = Printf.sprintf "%S" s in
  let fields kvs =
    "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) kvs) ^ "}"
  in
  let record =
    fields
      ([
        ("workload", str !workload);
        ("seed", string_of_int seed);
        ("seconds", json_number seconds);
        ("trace", string_of_bool trace);
        ( "host",
          fields
            ([
               ("nproc", string_of_int (Host.nproc ()));
               ("ocaml", str Sys.ocaml_version);
             ]
            @ List.rev_map (fun (k, v) -> (k, str v)) !host) );
        ("config", Harness.config_record);
        ("checks", fields (List.map (fun (k, ok) -> (k, string_of_bool ok)) o.checks));
      ]
      @ o.notes)
  in
  print_endline ("{\"run_record\":" ^ record ^ "}");
  let metric_json (name, unit_, v) =
    ( name,
      fields
        [ ("value", if Float.is_finite v then json_number v else "0"); ("unit", str unit_) ]
    )
  in
  print_endline
    (fields
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 o.attempted));
         ("failed", string_of_int (if finite then o.failed else max 1 o.failed));
         ("metrics", fields (List.map metric_json metrics));
       ])
