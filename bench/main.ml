(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6). Run with no arguments for everything, or pass any of:
   table1 dispatch fig6 fig7 fig8 fig9 softmax-ablation shard-ablation

   Each experiment prints the series the paper plots; EXPERIMENTS.md
   records paper-vs-measured values. *)

open Octf_tensor
module B = Octf.Builder
module Zoo = Octf_models.Convnet_zoo
module Fw = Octf_models.Framework_model
module W = Octf_models.Workload
module Lm = Octf_models.Lstm_model
module Sim = Octf_sim.Replica_sim
module Stats = Octf_sim.Stats

let section title = Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* Table 1: single-machine convnet step times                          *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: training step time (ms), one simulated Titan X";
  let models = [ Zoo.alexnet; Zoo.overfeat; Zoo.oxfordnet; Zoo.googlenet ] in
  Printf.printf "%-12s" "Library";
  List.iter (fun m -> Printf.printf "%12s" m.Zoo.name) models;
  print_newline ();
  List.iter
    (fun fw ->
      Printf.printf "%-12s" fw.Fw.fw_name;
      List.iter (fun m -> Printf.printf "%12.0f" (Fw.step_time_ms m fw)) models;
      print_newline ())
    Fw.all;
  Printf.printf
    "(paper: Caffe 324/823/1068/1935, Neon 87/211/320/270, Torch \
     81/268/529/470, TensorFlow 81/279/540/445)\n%!"

(* ------------------------------------------------------------------ *)
(* S5 claim: executor dispatches ~2M null ops per second               *)
(* ------------------------------------------------------------------ *)

let build_null_graph n =
  let b = B.create () in
  let zero = B.const_f b 0.0 in
  let outs = List.init n (fun _ -> B.identity b zero) in
  (b, B.add_n b outs)

let dispatch_bechamel () =
  section "Executor dispatch rate (bechamel; paper: ~2,000,000 null ops/s)";
  let n = 1000 in
  let b, sink = build_null_graph n in
  let session =
    Octf.Session.create ~config:(Octf.Session.Config.v ~passes:[] ()) (B.graph b)
  in
  ignore (Octf.Session.run session [ sink ]);
  let test =
    Bechamel.Test.make ~name:"null-step-1000-ops"
      (Bechamel.Staged.stage (fun () ->
           ignore (Octf.Session.run session [ sink ])))
  in
  let results =
    let open Bechamel in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg instances test
  in
  let ols =
    Bechamel.Analyze.all
      (Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Bechamel.Measure.run |])
      Bechamel.Toolkit.Instance.monotonic_clock results
  in
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ ns_per_step ] ->
          let ops_per_sec = float_of_int n /. (ns_per_step /. 1e9) in
          Printf.printf "%s: %.0f ns/step -> %.2f M ops/sec\n%!" name
            ns_per_step (ops_per_sec /. 1e6)
      | _ -> Printf.printf "%s: (no estimate)\n%!" name)
    ols

(* ------------------------------------------------------------------ *)
(* Scheduler comparison: inline loop vs shared domain pool             *)
(* ------------------------------------------------------------------ *)

(* Smoke mode (OCTF_BENCH_SMOKE=1) shrinks sizes so CI can exercise the
   full path in seconds; BENCH_dispatch.json records which mode ran. *)
let smoke_mode () =
  Option.value
    (Octf_tensor.Env.get (Octf_tensor.Env.bool "OCTF_BENCH_SMOKE"))
    ~default:false

(* Mean seconds per step, after one warm-up step that pays plan
   compilation. Timed through [run_with_metadata] with default options
   so the benchmark exercises the same entry point the observability
   layer instruments (stats collection off: its cost must not leak into
   the dispatch numbers). *)
let time_steps session sink ~iters =
  ignore (Octf.Session.run session [ sink ]);
  let options = Octf.Session.Run_options.default in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Octf.Session.run_with_metadata ~options session [ sink ])
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters

(* A wide graph: [width] independent matmul chains joined by one AddN —
   the §3.3 inter-op parallelism shape. Branches share no edges, so the
   pool scheduler can run them on distinct cores. *)
let build_wide_graph ~width ~dim ~chain =
  let b = B.create () in
  let rng = Rng.create 7 in
  let fresh () =
    B.const b (Tensor.uniform rng [| dim; dim |] ~lo:(-1.0) ~hi:1.0)
  in
  let branch _ =
    let x = ref (fresh ()) in
    for _ = 1 to chain do
      x := B.matmul b !x (fresh ())
    done;
    B.reduce_sum b !x
  in
  (b, B.add_n b (List.init width branch))

let dispatch_wide () =
  section "Wide-graph dispatch: inline vs domain-pool scheduler";
  let smoke = smoke_mode () in
  let width = if smoke then 8 else 32 in
  let dim = if smoke then 16 else 64 in
  let chain = 2 in
  let wide_iters = if smoke then 3 else 10 in
  let null_n = if smoke then 200 else 1000 in
  let null_iters = if smoke then 50 else 400 in
  let measure scheduler ~build ~iters =
    let b, sink = build () in
    let session =
      Octf.Session.create
        ~config:(Octf.Session.Config.v ~passes:[] ~scheduler ())
        (B.graph b)
    in
    time_steps session sink ~iters
  in
  (* Wide graph: per-step wall clock. *)
  let wide_build () = build_wide_graph ~width ~dim ~chain in
  let wide_inline = measure Octf.Scheduler.Inline ~build:wide_build ~iters:wide_iters in
  let wide_pool = measure Octf.Scheduler.Pool ~build:wide_build ~iters:wide_iters in
  let speedup = wide_inline /. wide_pool in
  Printf.printf
    "wide graph (%d branches of %d chained %dx%d matmuls):\n\
    \  inline: %8.2f ms/step\n\
    \  pool:   %8.2f ms/step   speedup %.2fx (%d worker domains, %d cores)\n%!"
    width chain dim dim (1000.0 *. wide_inline) (1000.0 *. wide_pool) speedup
    (Octf.Domain_pool.size ())
    (Domain.recommended_domain_count ());
  (* Null-op dispatch rate: the §5 microbenchmark, both policies. The
     pool pays a cross-domain round trip per op, so this bounds its
     per-dispatch overhead; the inline rate is the regression guard. *)
  let null_build () = build_null_graph null_n in
  let null_inline = measure Octf.Scheduler.Inline ~build:null_build ~iters:null_iters in
  let null_pool = measure Octf.Scheduler.Pool ~build:null_build ~iters:null_iters in
  let rate sec_per_step = float_of_int null_n /. sec_per_step in
  Printf.printf
    "null-op dispatch (%d ops/step):\n\
    \  inline: %8.2f M ops/s\n\
    \  pool:   %8.2f M ops/s\n%!"
    null_n
    (rate null_inline /. 1e6)
    (rate null_pool /. 1e6);
  (* Machine-readable record for cross-PR trajectory tracking. *)
  let json =
    Printf.sprintf
      "{\"bench\":\"dispatch\",\"smoke\":%b,\"cores\":%d,\"pool_workers\":%d,\n\
       \"wide_graph\":{\"width\":%d,\"dim\":%d,\"chain\":%d,\n\
      \  \"inline_ms_per_step\":%.3f,\"pool_ms_per_step\":%.3f,\"speedup\":%.3f},\n\
       \"null_op\":{\"ops_per_step\":%d,\n\
      \  \"inline_ops_per_sec\":%.0f,\"pool_ops_per_sec\":%.0f}}\n"
      (smoke : bool)
      (Domain.recommended_domain_count ())
      (Octf.Domain_pool.size ())
      width dim chain
      (1000.0 *. wide_inline)
      (1000.0 *. wide_pool)
      speedup null_n (rate null_inline) (rate null_pool)
  in
  let oc = open_out "BENCH_dispatch.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_dispatch.json\n%!"

(* ------------------------------------------------------------------ *)
(* Figure 6: null-step synchronous replication baseline                *)
(* ------------------------------------------------------------------ *)

let fig6_row name workload workers =
  let cfg =
    {
      (Sim.default ~workload) with
      Sim.num_workers = workers;
      num_ps = 16;
      coordination = Sim.Sync { backup = 0 };
    }
  in
  let r = Sim.run cfg ~steps:60 in
  Printf.printf
    "%-18s %4d workers: median %8.1f ms  (p10 %8.1f, p90 %8.1f)\n%!" name
    workers
    (1000.0 *. r.Sim.summary.Stats.median)
    (1000.0 *. r.Sim.summary.Stats.p10)
    (1000.0 *. r.Sim.summary.Stats.p90)

let fig6 () =
  section "Figure 6: null-step time vs workers, 16 PS tasks, synchronous";
  let worker_counts = [ 1; 5; 10; 25; 50; 100 ] in
  List.iter (fig6_row "scalar" W.null_scalar) worker_counts;
  List.iter (fig6_row "dense 100MB" (W.null_dense ~mb:100.0)) worker_counts;
  List.iter (fig6_row "dense 1GB" (W.null_dense ~mb:1024.0)) worker_counts;
  (* The embedding row width is fixed by the model; the 1GB and 16GB
     curves differ only in total (resident) size, which is the paper's
     point: sparse step times do not vary with embedding size. *)
  List.iter
    (fig6_row "sparse 1GB" (W.null_sparse ~gb:1.0 ~entries:32 ~dim:8192))
    worker_counts;
  List.iter
    (fig6_row "sparse 16GB" (W.null_sparse ~gb:16.0 ~entries:32 ~dim:8192))
    worker_counts;
  Printf.printf
    "(paper: scalar 1.8->8.8 ms, dense 100MB 147->613 ms, dense 1GB \
     1.01->7.16 s, sparse 5-20 ms flat)\n%!"

(* ------------------------------------------------------------------ *)
(* Figure 7: Inception-v3 scaling, async vs sync                       *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Figure 7: Inception-v3 training, 17 PS tasks";
  let workload = W.inception_v3 ~batch:32 in
  let counts = [ 1; 25; 50; 100; 200 ] in
  Printf.printf "%8s %12s %12s | %28s | %28s\n" "workers" "async img/s"
    "sync img/s" "async ms (med/p10/p90)" "sync ms (med/p10/p90)";
  List.iter
    (fun n ->
      let base =
        { (Sim.default ~workload) with Sim.num_workers = n; num_ps = 17 }
      in
      let a = Sim.run { base with Sim.coordination = Sim.Async } ~steps:40 in
      let s =
        Sim.run { base with Sim.coordination = Sim.Sync { backup = 0 } }
          ~steps:40
      in
      let fmt (r : Sim.result) =
        Printf.sprintf "%8.0f/%8.0f/%8.0f"
          (1000.0 *. r.Sim.summary.Stats.median)
          (1000.0 *. r.Sim.summary.Stats.p10)
          (1000.0 *. r.Sim.summary.Stats.p90)
      in
      Printf.printf "%8d %12.0f %12.0f | %s | %s\n%!" n a.Sim.throughput
        s.Sim.throughput (fmt a) (fmt s))
    counts;
  Printf.printf
    "(paper: throughput grows to ~2300 img/s at 200 workers with \
     diminishing returns; sync median ~10%% above async, much worse at \
     p90)\n%!"

(* ------------------------------------------------------------------ *)
(* Figure 8: backup workers                                            *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "Figure 8: backup workers, 50-worker sync Inception-v3";
  let workload = W.inception_v3 ~batch:32 in
  let base_median = ref 0.0 in
  Printf.printf "%8s %14s %18s\n" "backup" "step (s)" "norm. speedup";
  List.iter
    (fun b ->
      let cfg =
        {
          (Sim.default ~workload) with
          Sim.num_workers = 50 + b;
          num_ps = 17;
          coordination = Sim.Sync { backup = b };
        }
      in
      let r = Sim.run cfg ~steps:400 in
      let med = r.Sim.summary.Stats.median in
      if b = 0 then base_median := med;
      let speedup = !base_median /. med *. (50.0 /. float_of_int (50 + b)) in
      Printf.printf "%8d %14.2f %17.1f%%\n%!" b med
        ((speedup -. 1.0) *. 100.0))
    [ 0; 1; 2; 3; 4; 5 ];
  Printf.printf
    "(paper: step time falls to 1.93 s at b=4; normalized speedup peaks \
     ~9.5%% at b=3)\n%!"

(* ------------------------------------------------------------------ *)
(* Figure 9: language model, full vs sampled softmax                   *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section "Figure 9: LSTM-512-512 words/sec vs PS tasks";
  Printf.printf "softmax reduction with 512 samples: %.0fx\n"
    (Lm.softmax_reduction (Lm.Sampled 512));
  let ps_counts = [ 1; 2; 4; 8; 16; 32 ] in
  let worker_counts = [ 4; 32; 256 ] in
  List.iter
    (fun softmax ->
      let name =
        match softmax with
        | Lm.Full -> "full softmax"
        | Lm.Sampled s -> Printf.sprintf "sampled-%d softmax" s
      in
      let workload = Lm.workload ~softmax ~batch:64 ~unroll:20 in
      Printf.printf "%-22s" name;
      List.iter (fun w -> Printf.printf "%10d wkrs" w) worker_counts;
      print_newline ();
      List.iter
        (fun ps ->
          Printf.printf "  %2d PS:              " ps;
          List.iter
            (fun workers ->
              let cfg =
                {
                  (Sim.default ~workload) with
                  Sim.num_workers = workers;
                  num_ps = ps;
                  coordination = Sim.Async;
                }
              in
              let r = Sim.run cfg ~steps:20 in
              Printf.printf "%11.0fk" (r.Sim.throughput /. 1000.0))
            worker_counts;
          print_newline ())
        ps_counts)
    [ Lm.Full; Lm.Sampled 512 ];
  Printf.printf
    "(paper: full-softmax throughput scales with PS tasks — adding a 2nd \
     PS beats going 4->32 or 32->256 workers; sampled softmax is far \
     higher and saturates as the LSTM dominates)\n%!"

(* ------------------------------------------------------------------ *)
(* Ablations called out in DESIGN.md                                   *)
(* ------------------------------------------------------------------ *)

let softmax_ablation () =
  section
    "Ablation: sampled-softmax sample size (words/sec, 8 PS, 32 workers)";
  List.iter
    (fun s ->
      let workload =
        Lm.workload ~softmax:(Lm.Sampled s) ~batch:64 ~unroll:20
      in
      let cfg =
        {
          (Sim.default ~workload) with
          Sim.num_workers = 32;
          num_ps = 8;
          coordination = Sim.Async;
        }
      in
      let r = Sim.run cfg ~steps:20 in
      Printf.printf "  %5d samples (%5.0fx reduction): %9.0f words/s\n%!" s
        (Lm.softmax_reduction (Lm.Sampled s))
        r.Sim.throughput)
    [ 64; 128; 256; 512; 1024; 4096 ]

let shard_ablation () =
  section "Ablation: embedding shards under Zipf access (real execution)";
  let vocab = 50_000 and dim = 32 and batch = 256 in
  let rng = Rng.create 11 in
  let ids = Array.init batch (fun _ -> Rng.zipf rng ~n:vocab ~s:1.1) in
  List.iter
    (fun shards ->
      let b = B.create () in
      let store = Octf_nn.Var_store.create b in
      let emb =
        Octf_nn.Embedding.create store ~name:"emb" ~vocab ~dim
          ~num_shards:shards ()
      in
      let ids_ph = B.placeholder b Dtype.I32 in
      let looked = Octf_nn.Embedding.lookup emb b ids_ph in
      let sum = B.reduce_sum b looked in
      let init = Octf_nn.Var_store.init_op store in
      let session = Octf.Session.create (B.graph b) in
      Octf.Session.run_unit session [ init ];
      let feed = [ (ids_ph, Tensor.of_int_array [| batch |] ids) ] in
      ignore (Octf.Session.run ~feeds:feed session [ sum ]);
      let t0 = Unix.gettimeofday () in
      let iters = 50 in
      for _ = 1 to iters do
        ignore (Octf.Session.run ~feeds:feed session [ sum ])
      done;
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "  %2d shards: %8.0f lookups/s\n%!" shards
        (float_of_int (iters * batch) /. dt))
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Intra-op kernel throughput: matmul / conv2d / elementwise           *)
(* ------------------------------------------------------------------ *)

(* Mean seconds per call after one warm-up (which also spins up the
   domain pool on the first parallel shard). *)
let time_kernel ~iters f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters

(* Machine peak for these kernels: scalar double multiply-adds (the
   instructions ocamlopt emits for the GEMM tiles) on operands loaded
   from an L1-resident buffer, sixteen multiply-adds per two loads into
   eight independent accumulators, so no add waits on the previous one.
   The host lends its core a speed that changes every few tens of
   milliseconds, so this is the best of many short trials. *)
let measure_peak_gflops ~trials =
  let len = 512 in
  let xs = Array.init len (fun i -> 1.0 +. (float_of_int i *. 1e-6)) in
  let reps = 1000 in
  let run () =
    let c0 = ref 0.0 and c1 = ref 0.0 and c2 = ref 0.0 and c3 = ref 0.0 in
    let c4 = ref 0.0 and c5 = ref 0.0 and c6 = ref 0.0 and c7 = ref 0.0 in
    for _ = 1 to reps do
      let i = ref 0 in
      while !i < len do
        let x = Array.unsafe_get xs !i and y = Array.unsafe_get xs (!i + 1) in
        c0 := !c0 +. (x *. y);
        c1 := !c1 +. (x *. x);
        c2 := !c2 +. (y *. y);
        c3 := !c3 +. (y *. x);
        c4 := !c4 +. (x *. y);
        c5 := !c5 +. (x *. x);
        c6 := !c6 +. (y *. y);
        c7 := !c7 +. (y *. x);
        c0 := !c0 +. (x *. y);
        c1 := !c1 +. (x *. x);
        c2 := !c2 +. (y *. y);
        c3 := !c3 +. (y *. x);
        c4 := !c4 +. (x *. y);
        c5 := !c5 +. (x *. x);
        c6 := !c6 +. (y *. y);
        c7 := !c7 +. (y *. x);
        i := !i + 2
      done
    done;
    !c0 +. !c1 +. !c2 +. !c3 +. !c4 +. !c5 +. !c6 +. !c7
  in
  (* 16 multiply-adds (32 flops) per two elements. *)
  let flops = float_of_int (reps * len * 16) in
  let best = ref 0.0 in
  for _ = 1 to trials do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (run ()));
    let dt = Unix.gettimeofday () -. t0 in
    best := Float.max !best (flops /. dt /. 1e9)
  done;
  !best

(* The GEMMs of one train_convnet step (batch 8, 28x28, 5x5 convs with
   8 and 16 channels, a 784x64 dense layer) plus a 512^3 square, as
   (name, m, k, n, transpose_a, transpose_b, zero share of A): the
   same operand layouts Conv2D, Conv2DGradFilter (cols^T dy),
   Conv2DGradInput (dy filter^T, dy mostly zeros after ReluGrad and
   MaxPoolGrad) and MatMul hand the kernel. *)
let gemm_shapes ~smoke =
  [
    ("conv1_fwd", 6272, 25, 8, false, false, 0.0);
    ("conv2_fwd", 1568, 200, 16, false, false, 0.0);
    ("conv1_grad_filter", 25, 6272, 8, true, false, 0.0);
    ("conv2_grad_filter", 200, 1568, 16, true, false, 0.0);
    ("conv2_grad_input", 1568, 16, 200, false, true, 0.75);
    ("fc1_fwd", 8, 784, 64, false, false, 0.0);
    (if smoke then ("square_96", 96, 96, 96, false, false, 0.0)
     else ("square_512", 512, 512, 512, false, false, 0.0));
  ]

(* Each shape at one thread, timed in [trials] batches: GFLOP/s over
   2mkn at the median batch, and the share of [peak] reached at the
   best batch (the peak is a best too). The share counts useful flops, 2 nnz(A) n, so a kernel that
   skips zero terms of a sparse A gets no credit for them. *)
let gemm_roofline ~smoke ~peak =
  let rng = Rng.create 13 in
  let trials = if smoke then 3 else 9 in
  Parallel.set_threads 1;
  List.map
    (fun (name, m, k, n, ta, tb, zeros) ->
      let a =
        Tensor.init_f (if ta then [| k; m |] else [| m; k |]) (fun _ ->
            if Rng.float rng 1.0 < zeros then 0.0
            else Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let b =
        Tensor.uniform rng (if tb then [| n; k |] else [| k; n |]) ~lo:(-1.0)
          ~hi:1.0
      in
      (* Batches of about 2e7 flops (2e6 in smoke mode). *)
      let flops = 2.0 *. float_of_int (m * k * n) in
      let iters =
        max 1 (int_of_float ((if smoke then 2e6 else 2e7) /. flops))
      in
      let samples =
        List.sort compare
          (List.init trials (fun _ ->
               time_kernel ~iters (fun () ->
                   Tensor_ops.matmul ~transpose_a:ta ~transpose_b:tb a b)))
      in
      let median_s = List.nth samples (trials / 2) and best_s = List.hd samples in
      let nnz = Tensor.fold_f (fun c v -> if v <> 0.0 then c + 1 else c) 0 a in
      let gflops = flops /. median_s /. 1e9 in
      let useful_best = 2.0 *. float_of_int (nnz * n) /. best_s /. 1e9 in
      let pct = 100.0 *. useful_best /. peak in
      Printf.printf
        "gemm %-18s %4dx%4dx%4d (A %2.0f%% zeros), 1 thread: %8.3f ms  %5.2f \
         GFLOP/s  %5.1f%% of peak\n%!"
        name m k n (100.0 *. zeros) (1000.0 *. median_s) gflops pct;
      Printf.sprintf
        "{\"name\":%S,\"m\":%d,\"k\":%d,\"n\":%d,\"transpose_a\":%b,\"transpose_b\":%b,\"a_nonzeros\":%d,\"median_ms\":%.4f,\"best_ms\":%.4f,\"gflops\":%.3f,\"pct_of_peak\":%.1f}"
        name m k n ta tb nnz (1000.0 *. median_s) (1000.0 *. best_s) gflops pct)
    (gemm_shapes ~smoke)

(* The int8 GEMMs of one serve_cnn_int8 batch of 8 (the same convnet
   quantized), as (name, m, k, n): the two im2col convolutions and the
   dense layer, each a [m,k] x [k,n] product of uint8 codes. *)
let int8_gemm_shapes =
  [
    ("int8_conv1", 6272, 25, 8);
    ("int8_conv2", 1568, 200, 16);
    ("int8_fc1", 8, 784, 64);
  ]

(* Each int8 shape at one thread, timed like [gemm_roofline]: GOP/s
   over 2mkn at the median batch, and the share of the scalar float
   [peak] reached at the best batch. *)
let int8_gemm_roofline ~smoke ~peak =
  let rng = Random.State.make [| 13 |] in
  let trials = if smoke then 3 else 9 in
  Parallel.set_threads 1;
  let codes rows cols =
    Tensor.of_bytes [| rows; cols |]
      (Bytes.init (rows * cols) (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  List.map
    (fun (name, m, k, n) ->
      let a = codes m k and b = codes k n in
      let ops = 2.0 *. float_of_int (m * k * n) in
      let iters = max 1 (int_of_float ((if smoke then 2e6 else 2e7) /. ops)) in
      let samples =
        List.sort compare
          (List.init trials (fun _ ->
               time_kernel ~iters (fun () ->
                   Octf.Quant_kernels.quantized_matmul a (-1.0) 1.0 b (-0.5)
                     0.5)))
      in
      let median_s = List.nth samples (trials / 2) and best_s = List.hd samples in
      let gops = ops /. median_s /. 1e9 in
      let pct = 100.0 *. (ops /. best_s /. 1e9) /. peak in
      Printf.printf
        "gemm %-18s %4dx%4dx%4d (uint8 codes),   1 thread: %8.3f ms  %5.2f \
         GOP/s    %5.1f%% of peak\n%!"
        name m k n (1000.0 *. median_s) gops pct;
      Printf.sprintf
        "{\"name\":%S,\"m\":%d,\"k\":%d,\"n\":%d,\"median_ms\":%.4f,\"best_ms\":%.4f,\"gops\":%.3f,\"pct_of_peak\":%.1f}"
        name m k n (1000.0 *. median_s) (1000.0 *. best_s) gops pct)
    int8_gemm_shapes

let kernels () =
  section "Intra-op kernel throughput (GFLOP/s by thread budget)";
  let smoke = smoke_mode () in
  let iters = if smoke then 2 else 3 in
  let thread_counts = [ 1; 2; 4; 8 ] in
  let saved_threads = Parallel.threads () in
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved_threads)
  @@ fun () ->
  let peak = measure_peak_gflops ~trials:(if smoke then 20 else 100) in
  Printf.printf
    "machine peak (scalar multiply-add, L1-resident, 1 thread, best of \
     trials): %.2f GFLOP/s\n%!"
    peak;
  let roofline = gemm_roofline ~smoke ~peak in
  let int8_roofline = int8_gemm_roofline ~smoke ~peak in
  let rng = Rng.create 11 in
  (* matmul: one dim x dim square product per call. *)
  let mm_dim = if smoke then 96 else 512 in
  let a = Tensor.uniform rng [| mm_dim; mm_dim |] ~lo:(-1.0) ~hi:1.0 in
  let b = Tensor.uniform rng [| mm_dim; mm_dim |] ~lo:(-1.0) ~hi:1.0 in
  let mm_flops = 2.0 *. (float_of_int mm_dim ** 3.0) in
  let mm_series =
    List.map
      (fun t ->
        Parallel.set_threads t;
        let s = time_kernel ~iters (fun () -> Tensor_ops.matmul a b) in
        let gflops = mm_flops /. s /. 1e9 in
        Printf.printf "matmul %dx%d, %d threads: %7.2f ms  %6.2f GFLOP/s\n%!"
          mm_dim mm_dim t (1000.0 *. s) gflops;
        (t, gflops))
      thread_counts
  in
  (* conv2d: NHWC input, HWIO filter, SAME padding. *)
  let cv_batch = if smoke then 2 else 8 in
  let cv_size = if smoke then 16 else 32 in
  let cv_ic = if smoke then 8 else 16 in
  let cv_oc = if smoke then 16 else 32 in
  let img =
    Tensor.uniform rng [| cv_batch; cv_size; cv_size; cv_ic |] ~lo:(-1.0)
      ~hi:1.0
  in
  let filt = Tensor.uniform rng [| 3; 3; cv_ic; cv_oc |] ~lo:(-1.0) ~hi:1.0 in
  let cv_flops =
    2.0
    *. float_of_int (cv_batch * cv_size * cv_size * cv_oc * 3 * 3 * cv_ic)
  in
  let cv_series =
    List.map
      (fun t ->
        Parallel.set_threads t;
        let s =
          time_kernel ~iters (fun () ->
              Tensor_ops.conv2d img filt ~strides:(1, 1) ~padding:Tensor_ops.Same)
        in
        let gflops = cv_flops /. s /. 1e9 in
        Printf.printf
          "conv2d %dx%dx%dx%d *3x3x%d, %d threads: %7.2f ms  %6.2f GFLOP/s\n%!"
          cv_batch cv_size cv_size cv_ic cv_oc t (1000.0 *. s) gflops;
        (t, gflops))
      thread_counts
  in
  (* elementwise: broadcast-free map2 over a large buffer. *)
  let ew_n = if smoke then 1 lsl 18 else 1 lsl 22 in
  let x = Tensor.uniform rng [| ew_n |] ~lo:(-1.0) ~hi:1.0 in
  let y = Tensor.uniform rng [| ew_n |] ~lo:(-1.0) ~hi:1.0 in
  let ew_series =
    List.map
      (fun t ->
        Parallel.set_threads t;
        let s = time_kernel ~iters (fun () -> Tensor_ops.add x y) in
        let melems = float_of_int ew_n /. s /. 1e6 in
        Printf.printf "elementwise add %d elems, %d threads: %7.2f ms  %8.1f M elems/s\n%!"
          ew_n t (1000.0 *. s) melems;
        (t, melems))
      thread_counts
  in
  (* Fused elementwise chain: a 12-op chain of cheap ops over a large
     buffer. Unfused it makes twelve passes over memory; the fuse pass
     collapses the eleven unpinned ops into one FusedElementwise kernel
     (the fetched root must materialize), so the fused step is two
     passes. Sessions get separate graph builds: optimizer passes
     rewrite the graph in place. *)
  let fc_n = if smoke then 1 lsl 18 else 1 lsl 22 in
  let fc_input = Tensor.uniform rng [| fc_n |] ~lo:(-1.0) ~hi:1.0 in
  let build_fused_chain () =
    let b = B.create () in
    let x = B.placeholder b Dtype.F32 in
    let c v = B.const_f b v in
    let o = ref (B.mul b x (c 0.5)) in
    o := B.add b !o (c 1.0);
    o := B.neg b !o;
    o := B.maximum b !o (c (-2.0));
    o := B.sub b !o (c 0.25);
    o := B.mul b !o (c 1.5);
    o := B.minimum b !o (c 3.0);
    o := B.add b !o (c 0.125);
    o := B.neg b !o;
    o := B.abs b !o;
    o := B.sub b !o (c 0.5);
    o := B.mul b !o (c 0.75);
    (b, x, !o)
  in
  let fc_ops = 12 in
  let ub, ux, uy = build_fused_chain () in
  let unfused_session =
    Octf.Session.create
      ~config:(Octf.Session.Config.v ~passes:[] ())
      (B.graph ub)
  in
  let fb, fx, fy = build_fused_chain () in
  let fused_session =
    Octf.Session.create
      ~config:
        (Octf.Session.Config.v
           ~passes:[ Octf.Graph_optimizer.Fuse; Octf.Graph_optimizer.Prune ]
           ())
      (B.graph fb)
  in
  (* Mechanism check before timing: one fused kernel stands in for the
     chain and the fetch is bit-identical to the unfused run. *)
  let stats_of session x y =
    let options =
      Octf.Session.Run_options.v
        ~feeds:[ (x, fc_input) ]
        ~collect_stats:true ()
    in
    let fetched, md = Octf.Session.run_with_metadata ~options session [ y ] in
    (List.hd fetched, Option.get md.Octf.Session.Run_metadata.step_stats)
  in
  let unfused_out, _ = stats_of unfused_session ux uy in
  let fused_out, fused_stats = stats_of fused_session fx fy in
  let fused_kernels =
    List.length
      (List.filter
         (fun ns -> ns.Octf.Step_stats.op_type = "FusedElementwise")
         fused_stats.Octf.Step_stats.nodes)
  in
  let fused_group =
    match Octf.Step_stats.fusion_groups fused_stats with
    | [ (_, n, _) ] -> n
    | _ -> 0
  in
  let fc_identical = Tensor.equal unfused_out fused_out in
  Printf.printf
    "fused chain: %d ops -> %d fused kernel(s) covering %d ops, \
     bit-identical %b\n%!"
    fc_ops fused_kernels fused_group fc_identical;
  let fc_series =
    List.map
      (fun t ->
        Parallel.set_threads t;
        let unfused_s =
          time_kernel ~iters (fun () ->
              Octf.Session.run ~feeds:[ (ux, fc_input) ] unfused_session [ uy ])
        in
        let fused_s =
          time_kernel ~iters (fun () ->
              Octf.Session.run ~feeds:[ (fx, fc_input) ] fused_session [ fy ])
        in
        let speedup = unfused_s /. fused_s in
        Printf.printf
          "fused chain %d elems, %d threads: unfused %7.2f ms  fused %7.2f \
           ms  speedup %.2fx\n%!"
          fc_n t (1000.0 *. unfused_s) (1000.0 *. fused_s) speedup;
        (t, (unfused_s, fused_s, speedup)))
      thread_counts
  in
  let fc_best =
    List.fold_left (fun acc (_, (_, _, s)) -> Float.max acc s) 0.0 fc_series
  in
  (* Transposed-variant regression guard: every variant runs the same
     kernel with swapped strides, so none may cost more than a small
     factor over the plain path (strided loops once cost ~10x). *)
  Parallel.set_threads saved_threads;
  let variant ta tb =
    time_kernel ~iters (fun () ->
        Tensor_ops.matmul ~transpose_a:ta ~transpose_b:tb a b)
  in
  let plain = variant false false in
  let t_a = variant true false in
  let t_b = variant false true in
  let t_ab = variant true true in
  let worst = List.fold_left Float.max t_a [ t_b; t_ab ] in
  let ratio = worst /. plain in
  Printf.printf
    "matmul variants (ms): plain %.2f, T_a %.2f, T_b %.2f, T_ab %.2f  \
     (worst/plain %.2fx)\n%!"
    (1000.0 *. plain) (1000.0 *. t_a) (1000.0 *. t_b) (1000.0 *. t_ab) ratio;
  let series_json fmt series =
    String.concat ","
      (List.map (fun (t, v) -> Printf.sprintf "{\"threads\":%d,%s}" t (fmt v))
         series)
  in
  let json =
    Printf.sprintf
      "{\"bench\":\"kernels\",\"smoke\":%b,\"cores\":%d,\n\
       \"peak\":{\"gflops\":%.3f,\"method\":\"scalar multiply-add, L1-resident operands, 8 independent accumulators, 1 thread, best of trials\"},\n\
       \"gemm_roofline\":[%s],\n\
       \"int8_gemm_roofline\":[%s],\n\
       \"matmul\":{\"dim\":%d,\"series\":[%s]},\n\
       \"conv2d\":{\"batch\":%d,\"size\":%d,\"in_channels\":%d,\"out_channels\":%d,\"series\":[%s]},\n\
       \"elementwise\":{\"elems\":%d,\"series\":[%s]},\n\
       \"fused_chain\":{\"elems\":%d,\"chain_ops\":%d,\"fused_kernels\":%d,\"fused_group\":%d,\"bit_identical\":%b,\"best_speedup\":%.2f,\"series\":[%s]},\n\
       \"matmul_variants\":{\"plain_ms\":%.3f,\"transpose_a_ms\":%.3f,\"transpose_b_ms\":%.3f,\"transpose_both_ms\":%.3f,\"worst_ratio\":%.3f}}\n"
      (smoke : bool)
      (Domain.recommended_domain_count ())
      peak
      (String.concat ",\n  " roofline)
      (String.concat ",\n  " int8_roofline)
      mm_dim
      (series_json (Printf.sprintf "\"gflops\":%.3f") mm_series)
      cv_batch cv_size cv_ic cv_oc
      (series_json (Printf.sprintf "\"gflops\":%.3f") cv_series)
      ew_n
      (series_json (Printf.sprintf "\"melems_per_sec\":%.1f") ew_series)
      fc_n fc_ops fused_kernels fused_group fc_identical fc_best
      (series_json
         (fun (unfused_s, fused_s, speedup) ->
           Printf.sprintf
             "\"unfused_ms\":%.3f,\"fused_ms\":%.3f,\"speedup\":%.2f"
             (1000.0 *. unfused_s) (1000.0 *. fused_s) speedup)
         fc_series)
      (1000.0 *. plain) (1000.0 *. t_a) (1000.0 *. t_b) (1000.0 *. t_ab)
      ratio
  in
  let oc = open_out "BENCH_kernels.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_kernels.json\n%!";
  if ratio > 4.0 then begin
    Printf.printf
      "FAIL: a transposed matmul variant is %.1fx slower than the plain \
       path (budget 4x)\n%!"
      ratio;
    exit 1
  end;
  (* Fusion guards: mechanism always (one fused kernel standing in for
     >= 10 ops, bit-identical fetch), and a speedup floor — in smoke
     mode merely faster than unfused; at full size the single-pass
     kernel must beat twelve memory passes by 3x. *)
  if fused_kernels <> 1 || fused_group < 10 || not fc_identical then begin
    Printf.printf
      "FAIL: fused chain mechanism broken: %d fused kernel(s) covering %d \
       ops, bit-identical %b (want 1 kernel, >=10 ops, identical)\n%!"
      fused_kernels fused_group fc_identical;
    exit 1
  end;
  let fc_floor = if smoke then 1.0 else 3.0 in
  if fc_best <= fc_floor then begin
    Printf.printf
      "FAIL: fused chain best speedup %.2fx does not clear the %.1fx \
       floor\n%!"
      fc_best fc_floor;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Memory planning: peak live tensor bytes, planning on vs off         *)
(* ------------------------------------------------------------------ *)

(* One MLP training run under a fixed planning mode. The input batch is
   a graph constant (feeding would pin the endpoint and change what the
   planner may drop), and the Inline scheduler keeps the peak
   deterministic. Returns (peak live bytes, steps/sec). *)
let memory_run ~planning ~steps ~batch ~hidden =
  let module Vs = Octf_nn.Var_store in
  Octf.Metrics.reset Octf.Metrics.default;
  Octf_tensor.Buffer_pool.clear ();
  let rng = Rng.create 3 in
  let b = B.create () in
  let store = Vs.create b in
  let x =
    B.const b (Tensor.uniform rng [| batch; hidden |] ~lo:(-1.0) ~hi:1.0)
  in
  let h1 =
    Octf_nn.Layers.dense store ~activation:`Relu ~name:"fc1" ~in_dim:hidden
      ~out_dim:hidden x
  in
  let h2 =
    Octf_nn.Layers.dense store ~activation:`Relu ~name:"fc2" ~in_dim:hidden
      ~out_dim:hidden h1
  in
  let logits =
    Octf_nn.Layers.dense store ~name:"fc3" ~in_dim:hidden ~out_dim:10 h2
  in
  let loss = B.reduce_mean b (B.square b logits) in
  let train_op = Octf_train.Optimizer.minimize store ~lr:0.01 ~loss () in
  let session =
    Octf.Session.create
      ~config:
        (Octf.Session.Config.v ~scheduler:Octf.Scheduler.Inline
           ~memory_planning:planning ())
      (B.graph b)
  in
  Octf.Session.run_unit session [ Vs.init_op store ];
  (* Warm-up pays plan compilation; it touches the same peak the steady
     state does, so measuring from here is safe. *)
  ignore (Octf.Session.run session [ loss; train_op ]);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to steps do
    ignore (Octf.Session.run session [ loss; train_op ])
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let peak =
    match
      Octf.Metrics.find_value Octf.Metrics.default "octf_mem_peak_bytes"
    with
    | Some v -> int_of_float v
    | None -> 0
  in
  (peak, float_of_int steps /. dt)

let memory () =
  section "Memory planning: MLP peak live tensor bytes, planning on vs off";
  let smoke = smoke_mode () in
  let steps = if smoke then 5 else 30 in
  let batch = if smoke then 32 else 128 in
  let hidden = if smoke then 64 else 256 in
  let off_peak, off_rate = memory_run ~planning:false ~steps ~batch ~hidden in
  let on_peak, on_rate = memory_run ~planning:true ~steps ~batch ~hidden in
  let reduction =
    if off_peak = 0 then 0.0
    else 1.0 -. (float_of_int on_peak /. float_of_int off_peak)
  in
  Printf.printf
    "MLP %dx%d batch %d, %d steps:\n\
    \  planning off: peak %9d bytes  %7.1f steps/s\n\
    \  planning on:  peak %9d bytes  %7.1f steps/s   (peak -%.1f%%)\n%!"
    hidden hidden batch steps off_peak off_rate on_peak on_rate
    (100.0 *. reduction);
  let json =
    Printf.sprintf
      "{\"bench\":\"memory\",\"smoke\":%b,\n\
       \"model\":{\"hidden\":%d,\"batch\":%d,\"steps\":%d},\n\
       \"planning_off\":{\"peak_live_bytes\":%d,\"steps_per_sec\":%.2f},\n\
       \"planning_on\":{\"peak_live_bytes\":%d,\"steps_per_sec\":%.2f},\n\
       \"peak_reduction\":%.3f}\n"
      (smoke : bool)
      hidden batch steps off_peak off_rate on_peak on_rate reduction
  in
  let oc = open_out "BENCH_memory.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_memory.json\n%!";
  if reduction < 0.30 then begin
    Printf.printf
      "FAIL: memory planning cut peak live bytes by only %.1f%% (budget \
       30%%)\n%!"
      (100.0 *. reduction);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Pipelined execution: K steps in flight against a straggler reader   *)
(* ------------------------------------------------------------------ *)

module Pipe = Octf_data.Pipeline

(* One trainer step dequeues a batch from a prefetching input pipeline,
   passes it through an Identity named "slow_reader" that the fault
   injector turns into a persistent straggler, then a matmul and an
   AssignAdd update. At K = 1 every straggle serializes with compute
   and updates; at K > 1 in-flight steps overlap their straggles, so
   steps/sec must scale with the pipeline depth. *)
let pipeline_run ~k ~steps ~delay_ms =
  let dim = 16 in
  let b = B.create () in
  let build_rng = Rng.create 11 in
  let x_in = B.placeholder b ~name:"x_in" ~shape:[| 4; dim |] Dtype.F32 in
  let pipe =
    Pipe.create b ~capacity:8 ~prefetch:4 ~name:"input"
      ~producers:[ x_in ] ()
  in
  let x = match Pipe.batch pipe with [ x ] -> x | _ -> assert false in
  let x = B.identity b ~name:"slow_reader" x in
  let v = B.variable b ~name:"acc" ~dtype:Dtype.F32 ~shape:[||] () in
  let init = B.assign b v (B.const_f b 0.0) in
  let w =
    B.const b (Tensor.uniform build_rng [| dim; 1 |] ~lo:(-1.0) ~hi:1.0)
  in
  let update = B.assign_add b v (B.reduce_sum b (B.matmul b x w)) in
  let session =
    Octf.Session.create
      ~config:(Octf.Session.Config.v ~max_in_flight:k ())
      (B.graph b)
  in
  Octf.Session.run_unit session [ init ];
  Octf.Fault_injector.install
    [
      Octf.Fault_injector.Slow_kernel
        { pattern = "slow_reader"; step = 0; ms = delay_ms };
    ];
  Fun.protect ~finally:Octf.Fault_injector.reset @@ fun () ->
  let feed i =
    let rng = Rng.create (1000 + i) in
    [ (x_in, Tensor.uniform rng [| 4; dim |] ~lo:(-1.0) ~hi:1.0) ]
  in
  let fillers = Pipe.start_fillers pipe session ~threads:2 ~steps ~feed () in
  let t0 = Unix.gettimeofday () in
  let handles =
    List.init steps (fun _ -> Octf.Session.run_async session [ update ])
  in
  List.iter (fun h -> ignore (Octf.Session.wait h)) handles;
  let dt = Unix.gettimeofday () -. t0 in
  Pipe.stop_fillers fillers;
  float_of_int steps /. dt

let pipeline () =
  section "Pipelined execution: steps/sec vs pipeline depth, slow reader";
  let smoke = smoke_mode () in
  let steps = if smoke then 8 else 24 in
  let delay_ms = if smoke then 5.0 else 10.0 in
  let rate k = pipeline_run ~k ~steps ~delay_ms in
  let k1 = rate 1 in
  let k2 = rate 2 in
  let k4 = rate 4 in
  let speedup = k4 /. k1 in
  Printf.printf
    "%d steps, %.0f ms straggler on the input reader:\n\
    \  K=1 %7.2f steps/s\n\
    \  K=2 %7.2f steps/s\n\
    \  K=4 %7.2f steps/s   (K=4 / K=1 = %.2fx)\n%!"
    steps delay_ms k1 k2 k4 speedup;
  let json =
    Printf.sprintf
      "{\"bench\":\"pipeline\",\"smoke\":%b,\n\
       \"workload\":{\"steps\":%d,\"reader_delay_ms\":%.1f},\n\
       \"k1\":{\"steps_per_sec\":%.2f},\n\
       \"k2\":{\"steps_per_sec\":%.2f},\n\
       \"k4\":{\"steps_per_sec\":%.2f},\n\
       \"speedup_k4_over_k1\":%.3f}\n"
      (smoke : bool)
      steps delay_ms k1 k2 k4 speedup
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_pipeline.json\n%!";
  if speedup < 1.5 then begin
    Printf.printf
      "FAIL: K=4 pipeline gave only %.2fx over K=1 (budget 1.5x)\n%!"
      speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serving: micro-batched inference vs batch-size-1                    *)
(* ------------------------------------------------------------------ *)

(* The TensorFlow-Serving workload: many concurrent single-example
   clients against a frozen model. The served model is the repo's
   miniature MNIST convnet (6x6x1 input, conv-pool-conv-pool-fc) so
   the per-step fixed cost — executor dispatch, one kernel invocation
   per node, batcher wakeup — dominates per-row arithmetic, which is
   exactly the regime request coalescing is for. Each client keeps
   [depth] requests in flight, as a serving frontend multiplexing its
   own callers would; both legs use the identical harness and differ
   only in [max_batch_size]. *)

module Serving = Octf_serving.Serving

type serving_leg = {
  sl_rps : float;
  sl_p50_ms : float;
  sl_p99_ms : float;
  sl_mean_batch : float;
  sl_max_batch : int;
}

let serving_run ~session ~inputs ~outputs ~examples ~max_batch ~clients
    ~depth ~requests =
  let server =
    Serving.create ~name:"bench" ~max_batch_size:max_batch
      ~max_queue_delay:0.0005 ~queue_capacity:1024 ~session ~inputs
      ~outputs ()
  in
  let nex = Array.length examples in
  let lats = Array.make (clients * requests) 0.0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            let inflight = Queue.create () in
            let drain () =
              match Queue.take_opt inflight with
              | None -> ()
              | Some (ri, ts, req) -> (
                  match Serving.await req with
                  | Ok _ ->
                      lats.((ci * requests) + ri) <-
                        Unix.gettimeofday () -. ts
                  | Error _ -> ())
            in
            for ri = 0 to requests - 1 do
              if Queue.length inflight >= depth then drain ();
              let ts = Unix.gettimeofday () in
              match Serving.submit server examples.((ci + ri) mod nex) with
              | Ok req -> Queue.add (ri, ts, req) inflight
              | Error _ -> Thread.delay 0.001
            done;
            while Queue.length inflight > 0 do
              drain ()
            done)
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let stats = Serving.stats server in
  Serving.shutdown server;
  let sorted = Array.copy lats in
  Array.sort compare sorted;
  let pct p =
    let n = Array.length sorted in
    1e3 *. sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  {
    sl_rps = float_of_int stats.Serving.served /. wall;
    sl_p50_ms = pct 0.5;
    sl_p99_ms = pct 0.99;
    sl_mean_batch =
      float_of_int stats.Serving.served
      /. float_of_int (max 1 stats.Serving.batches);
    sl_max_batch = stats.Serving.max_batch;
  }

(* Median-of-trials per leg: the host is a shared VM with measurable
   CPU steal, and the batch-1 leg (16x more scheduler transitions per
   request) is hit hardest by it. *)
let serving_median legs =
  let a = Array.of_list legs in
  Array.sort (fun l l' -> compare l.sl_rps l'.sl_rps) a;
  a.(Array.length a / 2)

let serving_cnn ~train_steps =
  let module Vs = Octf_nn.Var_store in
  let module L = Octf_nn.Layers in
  let image_size = 6 and classes = 4 in
  let b = B.create () in
  let store = Vs.create b in
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let labels = B.placeholder b ~name:"labels" Dtype.I32 in
  let conv1 =
    L.conv2d store ~activation:`Relu ~name:"conv1" ~in_channels:1
      ~out_channels:2 ~ksize:(3, 3) pixels
  in
  let pool1 = L.max_pool2d b ~ksize:(2, 2) conv1 in
  let conv2 =
    L.conv2d store ~activation:`Relu ~name:"conv2" ~in_channels:2
      ~out_channels:4 ~ksize:(3, 3) pool1
  in
  let pool2 = L.max_pool2d b ~ksize:(2, 2) conv2 in
  (* 6x6 -> 3x3 (valid pool) -> 3x3 (same conv) -> 1x1, then a 1x1
     network-in-network projection before the classifier head. *)
  let conv3 =
    L.conv2d store ~activation:`Relu ~name:"conv3" ~in_channels:4
      ~out_channels:8 ~ksize:(1, 1) pool2
  in
  let flat = L.flatten b ~features:8 conv3 in
  let hidden =
    L.dense store ~activation:`Relu ~name:"fc1" ~in_dim:8 ~out_dim:16 flat
  in
  let logits =
    L.dense store ~name:"logits" ~in_dim:16 ~out_dim:classes hidden
  in
  let loss =
    Octf_nn.Losses.sparse_softmax_cross_entropy_mean b ~num_classes:classes
      ~logits ~labels
  in
  let train_op = Octf_train.Optimizer.minimize store ~lr:0.01 ~loss () in
  let session = Octf.Session.create (B.graph b) in
  Octf.Session.run_unit session [ Vs.init_op store ];
  let rng = Rng.create 5 in
  for _ = 1 to train_steps do
    let imgs =
      Octf_data.Synthetic.image_batch rng ~batch:16 ~size:image_size
        ~channels:1 ~classes
    in
    Octf.Session.run_unit
      ~feeds:
        [
          (pixels, imgs.Octf_data.Synthetic.pixels);
          (labels, imgs.Octf_data.Synthetic.labels);
        ]
      session [ train_op ]
  done;
  let frozen =
    Serving.freeze_session ~inputs:[ pixels ] ~outputs:[ logits ] session
  in
  let ex_rng = Rng.create 9 in
  let examples =
    Array.init 32 (fun _ ->
        let imgs =
          Octf_data.Synthetic.image_batch ex_rng ~batch:1 ~size:image_size
            ~channels:1 ~classes
        in
        [
          Tensor.reshape imgs.Octf_data.Synthetic.pixels
            [| image_size; image_size; 1 |];
        ])
  in
  (frozen, [ pixels ], [ logits ], examples)

let serving_lstm ~train_steps =
  let module Vs = Octf_nn.Var_store in
  let units = 32 and input_dim = 16 and batch = 16 in
  let b = B.create () in
  let store = Vs.create b in
  let cell = Octf_nn.Lstm.cell store ~name:"cell" ~input_dim ~units in
  let x = B.placeholder b ~name:"x" Dtype.F32 in
  let h = B.placeholder b ~name:"h" Dtype.F32 in
  let c = B.placeholder b ~name:"c" Dtype.F32 in
  let h', c' = Octf_nn.Lstm.step cell b ~x ~h ~c in
  let loss = B.reduce_mean b (B.square b h') in
  let train_op = Octf_train.Optimizer.minimize store ~lr:0.05 ~loss () in
  let session = Octf.Session.create (B.graph b) in
  Octf.Session.run_unit session [ Vs.init_op store ];
  let rng = Rng.create 7 in
  for _ = 1 to train_steps do
    let xs = Tensor.uniform rng [| batch; input_dim |] ~lo:(-1.0) ~hi:1.0 in
    let zeros = Tensor.zeros Dtype.F32 [| batch; units |] in
    Octf.Session.run_unit
      ~feeds:[ (x, xs); (h, zeros); (c, zeros) ]
      session [ train_op ]
  done;
  let frozen =
    Serving.freeze_session ~inputs:[ x; h; c ] ~outputs:[ h'; c' ] session
  in
  let ex_rng = Rng.create 9 in
  let examples =
    Array.init 32 (fun _ ->
        [
          Tensor.uniform ex_rng [| input_dim |] ~lo:(-1.0) ~hi:1.0;
          Tensor.zeros Dtype.F32 [| units |];
          Tensor.zeros Dtype.F32 [| units |];
        ])
  in
  (frozen, [ x; h; c ], [ h'; c' ], examples)

let serving () =
  section "Serving: micro-batched inference vs batch-size-1, 8 clients";
  let smoke = smoke_mode () in
  let train_steps = if smoke then 3 else 10 in
  let requests = if smoke then 40 else 300 in
  let trials = if smoke then 1 else 5 in
  let clients = 8 and depth = 8 in
  let session, inputs, outputs, examples = serving_cnn ~train_steps in
  let leg max_batch =
    serving_run ~session ~inputs ~outputs ~examples ~max_batch ~clients
      ~depth ~requests
  in
  (* Alternate the legs so a noisy-neighbour burst lands on both. *)
  let b1 = ref [] and mb = ref [] in
  for _ = 1 to trials do
    b1 := leg 1 :: !b1;
    mb := leg 32 :: !mb
  done;
  let b1 = serving_median !b1 and mb = serving_median !mb in
  let speedup = mb.sl_rps /. b1.sl_rps in
  Printf.printf
    "MNIST convnet (6x6 miniature), %d clients x %d requests, depth %d:\n\
    \  batch-size-1 %8.0f req/s   p50 %5.2f ms  p99 %5.2f ms\n\
    \  micro-batch  %8.0f req/s   p50 %5.2f ms  p99 %5.2f ms  (mean \
     batch %.1f, max %d)\n\
    \  speedup %.2fx\n%!"
    clients requests depth b1.sl_rps b1.sl_p50_ms b1.sl_p99_ms mb.sl_rps
    mb.sl_p50_ms mb.sl_p99_ms mb.sl_mean_batch mb.sl_max_batch speedup;
  let lsession, linputs, loutputs, lexamples = serving_lstm ~train_steps in
  let lstm =
    serving_run ~session:lsession ~inputs:linputs ~outputs:loutputs
      ~examples:lexamples ~max_batch:32 ~clients ~depth ~requests
  in
  Printf.printf
    "LSTM cell (32 units):\n\
    \  micro-batch  %8.0f req/s   p50 %5.2f ms  p99 %5.2f ms  (mean \
     batch %.1f)\n%!"
    lstm.sl_rps lstm.sl_p50_ms lstm.sl_p99_ms lstm.sl_mean_batch;
  let json =
    Printf.sprintf
      "{\"bench\":\"serving\",\"smoke\":%b,\n\
       \"workload\":{\"model\":\"mnist_cnn_6x6\",\"clients\":%d,\
       \"requests_per_client\":%d,\"inflight_per_client\":%d,\
       \"max_batch\":32},\n\
       \"batch1\":{\"req_per_sec\":%.0f,\"p50_ms\":%.3f,\"p99_ms\":%.3f},\n\
       \"microbatch\":{\"req_per_sec\":%.0f,\"p50_ms\":%.3f,\
       \"p99_ms\":%.3f,\"mean_batch\":%.1f,\"max_batch\":%d},\n\
       \"speedup\":%.3f,\n\
       \"lstm\":{\"req_per_sec\":%.0f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\
       \"mean_batch\":%.1f}}\n"
      (smoke : bool)
      clients requests depth b1.sl_rps b1.sl_p50_ms b1.sl_p99_ms mb.sl_rps
      mb.sl_p50_ms mb.sl_p99_ms mb.sl_mean_batch mb.sl_max_batch speedup
      lstm.sl_rps lstm.sl_p50_ms lstm.sl_p99_ms lstm.sl_mean_batch
  in
  let oc = open_out "BENCH_serving.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_serving.json\n%!";
  if smoke then begin
    if mb.sl_max_batch < 2 then begin
      Printf.printf "FAIL: serving smoke never coalesced a batch\n%!";
      exit 1
    end
  end
  else if speedup < 2.0 then begin
    Printf.printf
      "FAIL: micro-batching gave only %.2fx over batch-size-1 (budget \
       2.0x)\n%!"
      speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Quantized inference: calibrate + rewrite + serve at int8 (§5)       *)
(* ------------------------------------------------------------------ *)

let quant_metric name =
  Option.value ~default:0.0
    (Octf.Metrics.find_value Octf.Metrics.default name)

(* An MNIST-style CNN sized so the quantized contractions dominate the
   step; returns the trained session plus everything the freeze /
   calibrate / evaluate loop needs. *)
let quant_cnn ~image_size ~train_steps =
  let module Vs = Octf_nn.Var_store in
  let module L = Octf_nn.Layers in
  let classes = 4 and batch = 16 in
  let b = B.create () in
  let store = Vs.create b in
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let labels = B.placeholder b ~name:"labels" Dtype.I32 in
  let conv1 =
    L.conv2d store ~activation:`Relu ~name:"conv1" ~in_channels:1
      ~out_channels:8 ~ksize:(3, 3) pixels
  in
  let pool1 = L.max_pool2d b ~ksize:(2, 2) conv1 in
  let conv2 =
    L.conv2d store ~activation:`Relu ~name:"conv2" ~in_channels:8
      ~out_channels:16 ~ksize:(3, 3) pool1
  in
  let pool2 = L.max_pool2d b ~ksize:(2, 2) conv2 in
  let side = image_size / 4 in
  let flat = L.flatten b ~features:(side * side * 16) pool2 in
  let hidden =
    L.dense store ~activation:`Relu ~name:"fc1"
      ~in_dim:(side * side * 16)
      ~out_dim:64 flat
  in
  let logits = L.dense store ~name:"logits" ~in_dim:64 ~out_dim:classes hidden in
  let loss =
    Octf_nn.Losses.sparse_softmax_cross_entropy_mean b ~num_classes:classes
      ~logits ~labels
  in
  let train_op =
    Octf_train.Optimizer.minimize store
      ~algorithm:Octf_train.Optimizer.adam_default ~lr:0.003 ~loss ()
  in
  let session = Octf.Session.create (B.graph b) in
  Octf.Session.run_unit session [ Vs.init_op store ];
  let rng = Rng.create 5 in
  for _ = 1 to train_steps do
    let imgs =
      Octf_data.Synthetic.image_batch rng ~batch ~size:image_size ~channels:1
        ~classes
    in
    Octf.Session.run_unit
      ~feeds:
        [
          (pixels, imgs.Octf_data.Synthetic.pixels);
          (labels, imgs.Octf_data.Synthetic.labels);
        ]
      session [ train_op ]
  done;
  (session, pixels, logits, [ conv1; conv2; hidden ], classes)

let quant_argmax t ~row ~cols =
  let best = ref 0 in
  for j = 1 to cols - 1 do
    if
      Tensor.flat_get_f t ((row * cols) + j)
      > Tensor.flat_get_f t ((row * cols) + !best)
    then best := j
  done;
  !best

let quant () =
  section "Quantized inference: int8 islands vs the float frozen graph";
  let smoke = smoke_mode () in
  let image_size = if smoke then 12 else 24 in
  let train_steps = if smoke then 5 else 30 in
  let eval_batches = if smoke then 8 else 40 in
  let trials = if smoke then 1 else 5 in
  let batch = 16 in
  let session, pixels, logits, calibrate_eps, classes =
    quant_cnn ~image_size ~train_steps
  in
  let float_frozen =
    Serving.freeze_session ~quantize:false ~inputs:[ pixels ]
      ~outputs:[ logits ] session
  in
  (* calibration: representative batches through the float frozen graph *)
  let cal = Octf.Quant_calibration.create () in
  let cal_rng = Rng.create 17 in
  for _ = 1 to 8 do
    let imgs =
      Octf_data.Synthetic.image_batch cal_rng ~batch ~size:image_size
        ~channels:1 ~classes
    in
    Octf.Quant_calibration.observe_step cal float_frozen
      ~feeds:[ (pixels, imgs.Octf_data.Synthetic.pixels) ]
      calibrate_eps
  done;
  let islands0 = quant_metric "octf_quant_islands_total" in
  let wf0 = quant_metric "octf_quant_weight_bytes_float_total" in
  let wc0 = quant_metric "octf_quant_weight_bytes_code_total" in
  let quant_frozen =
    Serving.freeze_session ~quantize:true
      ~ranges:(Octf.Quant_calibration.ranges cal)
      ~inputs:[ pixels ] ~outputs:[ logits ] session
  in
  let islands = quant_metric "octf_quant_islands_total" -. islands0 in
  let weight_bytes_float =
    quant_metric "octf_quant_weight_bytes_float_total" -. wf0
  in
  let weight_bytes_code =
    quant_metric "octf_quant_weight_bytes_code_total" -. wc0
  in
  let weight_ratio = weight_bytes_float /. Float.max 1.0 weight_bytes_code in
  (* fixed evaluation set, shared by the throughput and accuracy legs *)
  let eval_rng = Rng.create 23 in
  let eval =
    Array.init eval_batches (fun _ ->
        (Octf_data.Synthetic.image_batch eval_rng ~batch ~size:image_size
           ~channels:1 ~classes)
          .Octf_data.Synthetic.pixels)
  in
  let time_leg frozen =
    ignore (Octf.Session.run ~feeds:[ (pixels, eval.(0)) ] frozen [ logits ]);
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun px ->
        ignore (Octf.Session.run ~feeds:[ (pixels, px) ] frozen [ logits ]))
      eval;
    Unix.gettimeofday () -. t0
  in
  (* alternate legs across trials, take medians (shared-VM noise) *)
  let ft = ref [] and qt = ref [] in
  for _ = 1 to trials do
    ft := time_leg float_frozen :: !ft;
    qt := time_leg quant_frozen :: !qt
  done;
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let float_s = median !ft and quant_s = median !qt in
  let images = float_of_int (eval_batches * batch) in
  let float_rps = images /. float_s and quant_rps = images /. quant_s in
  let speedup = quant_rps /. float_rps in
  (* top-1 agreement between the two frozen graphs *)
  let agree = ref 0 in
  Array.iter
    (fun px ->
      let run s =
        List.hd (Octf.Session.run ~feeds:[ (pixels, px) ] s [ logits ])
      in
      let fl = run float_frozen and qu = run quant_frozen in
      for row = 0 to batch - 1 do
        if quant_argmax fl ~row ~cols:classes = quant_argmax qu ~row ~cols:classes
        then incr agree
      done)
    eval;
  let delta = 1.0 -. (float_of_int !agree /. images) in
  Printf.printf
    "MNIST convnet (%dx%d), %d eval batches of %d:\n\
    \  float frozen     %8.0f img/s\n\
    \  int8 quantized   %8.0f img/s   speedup %.2fx\n\
    \  islands %.0f, weight bytes %.0f -> %.0f (%.1fx smaller), top-1 \
     delta %.3f\n%!"
    image_size image_size eval_batches batch float_rps quant_rps speedup
    islands weight_bytes_float weight_bytes_code weight_ratio delta;
  let json =
    Printf.sprintf
      "{\"bench\":\"quant\",\"smoke\":%b,\n\
       \"workload\":{\"model\":\"mnist_cnn_%dx%d\",\"eval_batches\":%d,\
       \"batch\":%d},\n\
       \"float\":{\"img_per_sec\":%.0f},\n\
       \"quantized\":{\"img_per_sec\":%.0f,\"islands\":%.0f,\
       \"weight_bytes_float\":%.0f,\"weight_bytes_code\":%.0f,\
       \"weight_ratio\":%.2f},\n\
       \"speedup\":%.3f,\"top1_delta\":%.4f}\n"
      (smoke : bool)
      image_size image_size eval_batches batch float_rps quant_rps islands
      weight_bytes_float weight_bytes_code weight_ratio speedup delta
  in
  let oc = open_out "BENCH_quant.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_quant.json\n%!";
  (* Gate: a real throughput win, or the asserted mechanism — islands
     rewritten, the honest 4x weight cut, and accuracy intact. With the
     two-columns-per-multiply int8 GEMM this bench measured 1.16x float
     (0.51x before it; one run each, one CPU of a 2-vCPU VM), short of
     1.3x: the int8 GEMM runs at about the float GEMM's rate on these
     shapes, and the int8 graph adds Quantize/Dequantize around float
     pooling. So the mechanism check stays the portable floor. *)
  let mechanism_ok = islands >= 2.0 && weight_ratio >= 3.9 in
  if delta > 0.15 then begin
    Printf.printf "FAIL: quantized top-1 delta %.3f exceeds 0.15\n%!" delta;
    exit 1
  end;
  if (not mechanism_ok) && speedup < 1.3 then begin
    Printf.printf
      "FAIL: neither %.2fx speedup >= 1.3x nor mechanism (islands %.0f, \
       ratio %.1fx)\n%!"
      speedup islands weight_ratio;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("table1", table1);
    ("dispatch", dispatch_bechamel);
    ("dispatch-wide", dispatch_wide);
    ("kernels", kernels);
    ("memory", memory);
    ("pipeline", pipeline);
    ("serving", serving);
    ("quant", quant);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("softmax-ablation", softmax_ablation);
    ("shard-ablation", shard_ablation);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all_experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst all_experiments));
          exit 1)
    requested
