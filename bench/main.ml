(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6), plus the per-layer micro-benchmarks. Run with no
   arguments for everything, or pass any of:
   table1 dispatch dispatch-wide kernels memory pipeline fig6 fig7 fig8
   fig9 softmax-ablation

   Each experiment prints the series the paper plots; EXPERIMENTS.md
   records paper-vs-measured values. End-to-end serving and training
   throughput are perfbench's (perfbench/README.md), not this harness's. *)

open Octf_tensor
module B = Octf.Builder
module Zoo = Octf_models.Convnet_zoo
module Fw = Octf_models.Framework_model
module W = Octf_models.Workload
module Lm = Octf_models.Lstm_model
module Sim = Octf_sim.Replica_sim
module Stats = Octf_sim.Stats

let section title = Printf.printf "\n=== %s ===\n%!" title

(* Smoke mode (OCTF_BENCH_SMOKE=1) shrinks sizes so CI can exercise the
   full path in seconds; every BENCH_*.json records which mode ran. *)
let smoke_mode () =
  Option.value
    (Octf_tensor.Env.get (Octf_tensor.Env.bool "OCTF_BENCH_SMOKE"))
    ~default:false

(* Mean seconds per call after one warm-up call, which pays plan
   compilation (or spins up the domain pool on the first parallel
   shard). *)
let time_kernel ~iters f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters

(* The median and the best of a list of trial timings. *)
let median_and_best samples =
  let sorted = List.sort compare samples in
  (List.nth sorted (List.length sorted / 2), List.hd sorted)

(* [trials] batches of [iters] calls of [f]: the (median, best) mean
   seconds per call. *)
let timed_trials ~trials ~iters f =
  median_and_best (List.init trials (fun _ -> time_kernel ~iters f))

(* Seconds of the fastest of [trials] runs of [f]. Machine peaks are
   bests: the host lends its core a speed that changes every few tens of
   milliseconds. *)
let best_time ~trials f =
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let write_json file json =
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n%!" file

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "FAIL: %s\n%!" msg;
      exit 1)
    fmt

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

(* A [trips]-trip counting loop: the Enter, Merge, Switch,
   NextIteration and Exit plumbing a loop-heavy model pays per trip. *)
let build_loop_graph trips =
  let b = B.create () in
  let cond b = function [ i; n ] -> B.less b i n | _ -> assert false in
  let body b = function [ i; _ ] -> [ B.add b i (B.ones_like b i) ] | _ -> assert false in
  let limit = B.const_f b (float_of_int trips) in
  (b, List.hd (B.while_loop b ~invariants:[ limit ] ~cond ~body [ B.const_f b 0.0 ]))

let dispatch_wide () =
  section "Wide-graph dispatch: inline vs domain-pool scheduler";
  let smoke = smoke_mode () in
  let width = if smoke then 8 else 32 in
  let dim = if smoke then 16 else 64 in
  let chain = 2 in
  let wide_iters = if smoke then 3 else 10 in
  let null_n = if smoke then 200 else 1000 in
  let null_iters = if smoke then 50 else 400 in
  let trips = if smoke then 50 else 500 in
  (* Mean seconds per step, minor words per kernel and kernels per step.
     Timed through [run_with_metadata] with default options so the
     benchmark exercises the same entry point the observability layer
     instruments (stats collection off: its cost must not leak into the
     dispatch numbers). *)
  let measure scheduler ~build ~iters =
    let b, sink = build () in
    let session =
      Octf.Session.create
        ~config:(Octf.Session.Config.v ~passes:[] ~scheduler ())
        (B.graph b)
    in
    let options = Octf.Session.Run_options.default in
    let step () = Octf.Session.run_with_metadata ~options session [ sink ] in
    let seconds = time_kernel ~iters step in
    let kernels () = Option.get (Octf.Metrics.find_value Octf.Metrics.default "octf_executor_kernels_total") in
    let k0 = kernels () and w0 = Gc.minor_words () in
    ignore (step ());
    let words = Gc.minor_words () -. w0 and ops = kernels () -. k0 in
    (seconds, words /. ops, ops)
  in
  (* Wide graph: per-step wall clock. *)
  let wide_build () = build_wide_graph ~width ~dim ~chain in
  let wide_inline, _, _ = measure Octf.Scheduler.Inline ~build:wide_build ~iters:wide_iters in
  let wide_pool, _, _ = measure Octf.Scheduler.Pool ~build:wide_build ~iters:wide_iters in
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
     per-dispatch overhead; the inline rate is the regression guard.
     Minor words per op include the step's own set-up, spread over its
     ops. *)
  let null_build () = build_null_graph null_n in
  let null_inline, null_words, _ = measure Octf.Scheduler.Inline ~build:null_build ~iters:null_iters in
  let null_pool, _, _ = measure Octf.Scheduler.Pool ~build:null_build ~iters:null_iters in
  let loop_build () = build_loop_graph trips in
  let loop_s, loop_words, loop_ops = measure Octf.Scheduler.Inline ~build:loop_build ~iters:null_iters in
  let rate ops sec_per_step = ops /. sec_per_step in
  let null_ops = float_of_int null_n in
  Printf.printf
    "null-op dispatch (%d ops/step):\n\
    \  inline: %8.2f M ops/s   %5.1f minor words/op\n\
    \  pool:   %8.2f M ops/s\n\
     while_loop (%d trips, %.0f ops/step), inline:\n\
    \          %8.2f M ops/s   %5.1f minor words/op\n%!"
    null_n (rate null_ops null_inline /. 1e6) null_words
    (rate null_ops null_pool /. 1e6)
    trips loop_ops (rate loop_ops loop_s /. 1e6) loop_words;
  (* Machine-readable record for cross-PR trajectory tracking. *)
  write_json "BENCH_dispatch.json"
    (Printf.sprintf
       "{\"bench\":\"dispatch\",\"smoke\":%b,\"cores\":%d,\"pool_workers\":%d,\n\
       \"wide_graph\":{\"width\":%d,\"dim\":%d,\"chain\":%d,\n\
      \  \"inline_ms_per_step\":%.3f,\"pool_ms_per_step\":%.3f,\"speedup\":%.3f},\n\
       \"null_op\":{\"ops_per_step\":%d,\n\
      \  \"inline_ops_per_sec\":%.0f,\"pool_ops_per_sec\":%.0f,\"inline_minor_words_per_op\":%.1f},\n\
       \"while_loop\":{\"trips\":%d,\"ops_per_step\":%.0f,\n\
      \  \"inline_ops_per_sec\":%.0f,\"inline_minor_words_per_op\":%.1f}}\n"
      (smoke : bool)
      (Domain.recommended_domain_count ())
      (Octf.Domain_pool.size ())
      width dim chain
      (1000.0 *. wide_inline)
      (1000.0 *. wide_pool)
      speedup null_n (rate null_ops null_inline) (rate null_ops null_pool)
      null_words trips loop_ops (rate loop_ops loop_s) loop_words)

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

(* ------------------------------------------------------------------ *)
(* Intra-op kernel throughput: matmul / conv2d / elementwise           *)
(* ------------------------------------------------------------------ *)

(* Machine peak for these kernels: scalar double multiply-adds (the
   instructions ocamlopt emits for the GEMM tiles) on operands loaded
   from an L1-resident buffer, sixteen multiply-adds per two loads into
   eight independent accumulators, so no add waits on the previous one.
   Best of many short trials. *)
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
  float_of_int (reps * len * 16) /. best_time ~trials run /. 1e9

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

let random_with_zeros rng zeros shape =
  Tensor.init_f shape (fun _ ->
      if Rng.float rng 1.0 < zeros then 0.0
      else Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

let nonzeros a = Array.fold_left (fun c v -> if v <> 0.0 then c + 1 else c) 0 a

(* One kernel of an (m x k) x (k x n) contraction at one thread, timed
   in [trials] batches of about 2e7 flops (2e6 in smoke mode): GFLOP/s
   over 2mkn at the median batch, and the share of [peak] reached at the
   best batch (the peak is a best too). The share counts useful flops,
   2 nnz(A) n, so a kernel that skips zero terms of a sparse A gets no
   credit for them. [fields] are extra JSON fields of the row. *)
let roofline_row ~smoke ~peak ~kind ~name ~m ~k ~n ~zeros ~a_nonzeros ~fields
    run =
  let trials = if smoke then 3 else 9 in
  let flops = 2.0 *. float_of_int (m * k * n) in
  let iters = max 1 (int_of_float ((if smoke then 2e6 else 2e7) /. flops)) in
  let median_s, best_s = timed_trials ~trials ~iters run in
  let gflops = flops /. median_s /. 1e9 in
  let useful_best = 2.0 *. float_of_int (a_nonzeros * n) /. best_s /. 1e9 in
  let pct = 100.0 *. useful_best /. peak in
  Printf.printf
    "%s %-27s %4dx%4dx%4d (A %2.0f%% zeros), 1 thread: %8.3f ms  %5.2f \
     GFLOP/s  %5.1f%% of peak\n%!"
    kind name m k n (100.0 *. zeros) (1000.0 *. median_s) gflops pct;
  Printf.sprintf
    "{\"name\":%S,\"m\":%d,\"k\":%d,\"n\":%d,%s,\"a_nonzeros\":%d,\"median_ms\":%.4f,\"best_ms\":%.4f,\"gflops\":%.3f,\"pct_of_peak\":%.1f}"
    name m k n fields a_nonzeros (1000.0 *. median_s) (1000.0 *. best_s) gflops
    pct

let gemm_roofline ~smoke ~peak =
  let rng = Rng.create 13 in
  Parallel.set_threads 1;
  List.map
    (fun (name, m, k, n, ta, tb, zeros) ->
      let a = random_with_zeros rng zeros (if ta then [| k; m |] else [| m; k |]) in
      let b = random_with_zeros rng 0.0 (if tb then [| n; k |] else [| k; n |]) in
      roofline_row ~smoke ~peak ~kind:"gemm" ~name ~m ~k ~n ~zeros
        ~a_nonzeros:(nonzeros (Tensor.float_buffer a))
        ~fields:(Printf.sprintf "\"transpose_a\":%b,\"transpose_b\":%b" ta tb)
        (fun () -> Tensor_ops.matmul ~transpose_a:ta ~transpose_b:tb a b))
    (gemm_shapes ~smoke)

(* The same convolutions as whole kernels, im2col and col2im included,
   as (name, kernel, (input shape, filter shape), zero share): the gap
   to the GEMM-only row above is the kernel's data movement. The zeros
   are the input's for Conv2D and Conv2DGradFilter (A is its im2col)
   and dy's for Conv2DGradInput (A is dy). The half-zero filter gradient
   is the mostly-zero A that once took the sparse loop. *)
let conv_shapes =
  let conv1 = ([| 8; 28; 28; 1 |], [| 5; 5; 1; 8 |])
  and conv2 = ([| 8; 14; 14; 8 |], [| 5; 5; 8; 16 |]) in
  [
    ("conv1_fwd", `Fwd, conv1, 0.0);
    ("conv2_fwd", `Fwd, conv2, 0.0);
    ("conv1_grad_filter", `Filter, conv1, 0.0);
    ("conv2_grad_filter", `Filter, conv2, 0.0);
    ("conv2_grad_filter_half_zero", `Filter, conv2, 0.5);
    ("conv2_grad_input", `Input, conv2, 0.75);
  ]

let conv_roofline ~smoke ~peak =
  let rng = Rng.create 31 in
  Parallel.set_threads 1;
  let strides = (1, 1) and padding = Tensor_ops.Same in
  List.map
    (fun (name, kernel, (is, fs), zeros) ->
      let rows = is.(0) * is.(1) * is.(2) and kdim = fs.(0) * fs.(1) * fs.(2) in
      let oc = fs.(3) and dx = kernel = `Input in
      let x = random_with_zeros rng (if dx then 0.0 else zeros) is in
      let filter = random_with_zeros rng 0.0 fs in
      let dy =
        random_with_zeros rng (if dx then zeros else 0.0)
          [| is.(0); is.(1); is.(2); oc |]
      in
      let cols_nonzeros () =
        nonzeros
          (Tensor_ops.im2col (Tensor.float_buffer x) ~ih:is.(1) ~iw:is.(2)
             ~ic:is.(3) ~fh:fs.(0) ~fw:fs.(1) ~oh:is.(1) ~ow:is.(2) ~sh:1
             ~sw:1 ~ph:(fs.(0) / 2) ~pw:(fs.(1) / 2) ~rows)
      in
      let (m, k, n), a_nonzeros, run =
        match kernel with
        | `Fwd ->
            ( (rows, kdim, oc),
              cols_nonzeros (),
              fun () -> Tensor_ops.conv2d x filter ~strides ~padding )
        | `Filter ->
            ( (kdim, rows, oc),
              cols_nonzeros (),
              fun () ->
                Tensor_ops.conv2d_grad_filter ~filter_shape:fs x dy ~strides
                  ~padding )
        | `Input ->
            ( (rows, oc, kdim),
              nonzeros (Tensor.float_buffer dy),
              fun () ->
                Tensor_ops.conv2d_grad_input ~input_shape:is filter dy ~strides
                  ~padding )
      in
      roofline_row ~smoke ~peak ~kind:"conv" ~name ~m ~k ~n ~zeros ~a_nonzeros
        ~fields:(Printf.sprintf "\"zeros\":%.2f" zeros)
        run)
    conv_shapes

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
      let median_s, best_s =
        timed_trials ~trials ~iters (fun () ->
            Octf.Quant_kernels.quantized_matmul a (-1.0) 1.0 b (-0.5) 0.5)
      in
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

(* Copy bandwidth peak: Array.blit of an L1-resident 32 KB float buffer,
   counting 8 bytes per element copied, best of many short trials. *)
let measure_blit_peak_gbs ~trials =
  let n = 4096 and reps = 2000 in
  let src = Array.make n 1.0 and dst = Array.make n 0.0 in
  let run () =
    for _ = 1 to reps do
      Array.blit src 0 dst 0 n
    done;
    dst
  in
  float_of_int (8 * n * reps) /. best_time ~trials run /. 1e9

(* Microseconds per call at the median batch of [trials], and GB/s at
   the best batch as a share of the Array.blit [peak], counting
   [elem_bytes] (default 8) per element the call moves ([written]). One
   JSON object per case. *)
let timed_cases ?(elem_bytes = 8) ~smoke ~peak ~label cases =
  let trials = if smoke then 3 else 9 in
  List.map
    (fun (name, written, f) ->
      let iters = max 1 ((if smoke then 1_000_000 else 4_000_000) / written) in
      let median_s, best_s = timed_trials ~trials ~iters f in
      let gbs = float_of_int (elem_bytes * written) /. best_s /. 1e9 in
      let pct = 100.0 *. gbs /. peak in
      Printf.printf
        "%s %-26s %7d elems, 1 thread: %9.2f us  %6.2f GB/s  %5.1f%% of blit \
         peak\n%!"
        label name written (1e6 *. median_s) gbs pct;
      Printf.sprintf
        "{\"name\":%S,\"elems\":%d,\"median_us\":%.3f,\"best_us\":%.3f,\"gbs\":%.3f,\"pct_of_blit_peak\":%.1f}"
        name written (1e6 *. median_s) (1e6 *. best_s) gbs pct)
    cases

(* The data-movement kernels of an LSTM step (the [x; h] concat and one
   gate sliced out of the fused gate matrix), a square transpose and a
   leading-axis sum, at one thread. The sum writes 8 floats, so its row
   counts the elements it reads. *)
let data_movement ~smoke ~peak =
  Parallel.set_threads 1;
  let rng = Rng.create 17 in
  let u shape = Tensor.uniform rng shape ~lo:(-1.0) ~hi:1.0 in
  let x = u [| 16; 128 |] and h = u [| 16; 128 |] in
  let gates = u [| 8; 128 |] and square = u [| 512; 512 |] in
  let conv1_dy = u [| 8; 28; 28; 8 |] in
  let case name f = (name, Tensor.numel (f ()), f) in
  let rows =
    timed_cases ~smoke ~peak ~label:"copy"
      [
        case "concat_2x16x128" (fun () -> Tensor_ops.concat [ x; h ] ~axis:1);
        case "slice_8x32_of_8x128" (fun () ->
            Tensor_ops.slice gates ~begin_:[| 0; 32 |] ~size:[| 8; 32 |]);
        case "transpose_512x512" (fun () -> Tensor_ops.transpose square);
        (* A bias gradient: train_convnet's conv1 dy summed to its bias. *)
        ( "reduce_sum_8x28x28x8_to_8",
          Tensor.numel conv1_dy,
          fun () -> Tensor_ops.reduce_sum ~axes:[ 0; 1; 2 ] conv1_dy );
      ]
  in
  Printf.sprintf
    "{\"blit_peak_gbs\":%.3f,\"method\":\"Array.blit of a 32 KB float buffer, 8 bytes per element copied, 1 thread, best of trials\",\"ops\":[%s]}"
    peak
    (String.concat ",\n  " rows)

(* MaxPool (2x2, stride 2, VALID) at serve_cnn_int8's two pooling
   shapes, on floats and on the uint8 codes the int8 graph pools, at one
   thread. Every input element is read once, so GB/s counts the input's
   bytes: 8 per float, 1 per code. *)
let pooling ~smoke ~peak =
  Parallel.set_threads 1;
  let rng = Rng.create 29 in
  let shapes = [ [| 8; 28; 28; 8 |]; [| 8; 14; 14; 16 |] ] in
  let rows ~elem_bytes ~suffix encode =
    timed_cases ~elem_bytes ~smoke ~peak ~label:"pool"
      (List.map
         (fun shape ->
           let x = encode (Tensor.uniform rng shape ~lo:0.0 ~hi:4.0) in
           ( Printf.sprintf "max_pool_%s_%s"
               (String.concat "x" (List.map string_of_int (Array.to_list shape)))
               suffix,
             Tensor.numel x,
             fun () ->
               Tensor_ops.max_pool x ~ksize:(2, 2) ~strides:(2, 2)
                 ~padding:Tensor_ops.Valid ))
         shapes)
  in
  let floats = rows ~elem_bytes:8 ~suffix:"f32" Fun.id in
  let codes =
    rows ~elem_bytes:1 ~suffix:"u8" (fun x ->
        Octf.Quant_kernels.quantize_with_range x 0.0 4.0)
  in
  Printf.sprintf
    "{\"method\":\"input bytes read (8 per float, 1 per uint8 code), share of blit_peak_gbs, 1 thread\",\"ops\":[%s]}"
    (String.concat ",\n  " (floats @ codes))

(* One sparse Adagrad step on train_lm_ps's softmax table (2048 x 32,
   320 gathered ids a step, duplicates included), at one thread: the
   UniqueSegmentSum that deduplicates the rows, the fused
   SparseApplyAdagrad on them (two copy-on-write table copies plus the
   rows), and the dense chain it replaces (densify, square, +=, sqrt,
   + eps, * lr, /, -=; eight table-sized outputs). *)
let sparse_update ~smoke ~peak =
  Parallel.set_threads 1;
  let rng = Rng.create 23 in
  let vocab = 2048 and dim = 32 and n = 320 in
  let ids =
    Tensor.of_int_array [| n |]
      (Array.init n (fun _ ->
           (* Skewed toward low ids, as a Zipf token stream is. *)
           let r = Rng.int rng vocab in
           r * r / vocab))
  in
  let values = Tensor.uniform rng [| n; dim |] ~lo:(-1.0) ~hi:1.0 in
  let var = Tensor.uniform rng [| vocab; dim |] ~lo:(-0.08) ~hi:0.08 in
  let accum = Tensor.full Dtype.F32 [| vocab; dim |] 0.1 in
  let lr = Tensor.scalar_f 0.3 and eps = Tensor.scalar_f 1e-8 in
  let unique, sums = Tensor_ops.unique_segment_sum ids values in
  let table = vocab * dim in
  let rows =
    timed_cases ~smoke ~peak ~label:"sparse"
      [
        ( "unique_segment_sum_320",
          Tensor.numel unique + Tensor.numel sums,
          fun () -> Tensor_ops.unique_segment_sum ids values );
        ( "sparse_apply_adagrad_2048x32",
          (2 * table) + Tensor.numel sums,
          fun () ->
            Tensor_ops.sparse_apply_adagrad ~var ~accum ~lr ~epsilon:1e-8 unique
              sums );
        ( "dense_adagrad_2048x32",
          8 * table,
          fun () ->
            let g = Tensor_ops.scatter_into_shape [| vocab; dim |] ids values in
            let acc = Tensor_ops.add accum (Tensor_ops.square g) in
            let step =
              Tensor_ops.div (Tensor_ops.mul lr g)
                (Tensor_ops.add (Tensor_ops.sqrt acc) eps)
            in
            (Tensor_ops.sub var step, acc) );
      ]
  in
  Printf.sprintf
    "{\"ids\":%d,\"unique\":%d,\"table\":[%d,%d],\"method\":\"8 bytes per element written, share of blit_peak_gbs, 1 thread\",\"ops\":[%s]}"
    n (Tensor.numel unique) vocab dim
    (String.concat ",\n  " rows)

(* Small-tensor elementwise kernels at serve_rnn's shapes (batch 8,
   LSTM width 32, four gates): the gate bias add, two activations and
   the fused cell update c' = sigmoid(f) * c + sigmoid(i) * tanh(g),
   run as the FusedElementwise kernel runs it (one program compiled
   once). At these sizes per-call cost dominates, so each op reports
   microseconds per call (median of trials) and minor-heap words
   allocated per call (Gc.minor_words), at one thread. *)
let small_elementwise ~smoke =
  Parallel.set_threads 1;
  let rng = Rng.create 19 in
  let u shape = Tensor.uniform rng shape ~lo:(-2.0) ~hi:2.0 in
  let gates = u [| 8; 128 |] and bias = u [| 128 |] in
  let f = u [| 8; 32 |] and c = u [| 8; 32 |] in
  let i = u [| 8; 32 |] and g = u [| 8; 32 |] in
  let cell =
    Fused_eval.(
      compile
        (Binary
           ( "Add",
             Binary ("Mul", Unary ("Sigmoid", Input 0), Input 1),
             Binary ("Mul", Unary ("Sigmoid", Input 2), Unary ("Tanh", Input 3))
           )))
  in
  let cases =
    [
      ("bias_add_8x128+128", fun () -> Tensor_ops.add gates bias);
      ("sigmoid_8x32", fun () -> Tensor_ops.sigmoid f);
      ("tanh_8x32", fun () -> Tensor_ops.tanh g);
      ("lstm_cell_fused_8x32", fun () -> Fused_eval.run cell [| f; c; i; g |]);
    ]
  in
  let trials = if smoke then 3 else 9 and iters = if smoke then 2_000 else 20_000 in
  let rows =
    List.map
      (fun (name, run) ->
        let elems = Tensor.numel (run ()) in
        let median_s, _ = timed_trials ~trials ~iters run in
        let w0 = Gc.minor_words () in
        for _ = 1 to iters do
          ignore (run ())
        done;
        let words = (Gc.minor_words () -. w0) /. float_of_int iters in
        Printf.printf
          "small elementwise %-22s %5d elems, 1 thread: %7.3f us/call  %7.1f \
           minor words/call\n%!"
          name elems (1e6 *. median_s) words;
        Printf.sprintf
          "{\"name\":%S,\"elems\":%d,\"us_per_call\":%.3f,\"minor_words_per_call\":%.1f}"
          name elems (1e6 *. median_s) words)
      cases
  in
  Printf.sprintf
    "{\"method\":\"median of %d trials of %d calls, minor words from Gc.minor_words, 1 thread\",\"ops\":[%s]}"
    trials iters
    (String.concat ",\n  " rows)

let kernels () =
  section "Intra-op kernel throughput (GFLOP/s by thread budget)";
  let smoke = smoke_mode () in
  let iters = if smoke then 2 else 3 in
  let saved_threads = Parallel.threads () in
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved_threads)
  @@ fun () ->
  let peak = measure_peak_gflops ~trials:(if smoke then 20 else 100) in
  Printf.printf
    "machine peak (scalar multiply-add, L1-resident, 1 thread, best of \
     trials): %.2f GFLOP/s\n%!"
    peak;
  let roofline = gemm_roofline ~smoke ~peak in
  let conv_roofline = conv_roofline ~smoke ~peak in
  let int8_roofline = int8_gemm_roofline ~smoke ~peak in
  let blit_peak = measure_blit_peak_gbs ~trials:(if smoke then 10 else 50) in
  Printf.printf
    "copy peak (Array.blit, 32 KB L1-resident, 1 thread, best of trials): \
     %.2f GB/s\n%!"
    blit_peak;
  let data_movement = data_movement ~smoke ~peak:blit_peak in
  let pooling = pooling ~smoke ~peak:blit_peak in
  let sparse_update = sparse_update ~smoke ~peak:blit_peak in
  let small_elementwise = small_elementwise ~smoke in
  (* One point per intra-op thread budget: [f t] runs under [t]. *)
  let series f =
    List.map
      (fun t ->
        Parallel.set_threads t;
        (t, f t))
      [ 1; 2; 4; 8 ]
  in
  (* [work] units per call of [f] over its mean call time. *)
  let rate_series ~label ~work ~units f =
    series (fun t ->
        let s = time_kernel ~iters f in
        let rate = work /. s in
        Printf.printf "%s, %d threads: %7.2f ms  %8.2f %s\n%!" label t
          (1000.0 *. s) rate units;
        rate)
  in
  let rng = Rng.create 11 in
  (* matmul: one dim x dim square product per call. *)
  let mm_dim = if smoke then 96 else 512 in
  let a = Tensor.uniform rng [| mm_dim; mm_dim |] ~lo:(-1.0) ~hi:1.0 in
  let b = Tensor.uniform rng [| mm_dim; mm_dim |] ~lo:(-1.0) ~hi:1.0 in
  let mm_flops = 2.0 *. (float_of_int mm_dim ** 3.0) in
  let mm_series =
    rate_series
      ~label:(Printf.sprintf "matmul %dx%d" mm_dim mm_dim)
      ~work:(mm_flops /. 1e9) ~units:"GFLOP/s"
      (fun () -> Tensor_ops.matmul a b)
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
    rate_series
      ~label:
        (Printf.sprintf "conv2d %dx%dx%dx%d *3x3x%d" cv_batch cv_size cv_size
           cv_ic cv_oc)
      ~work:(cv_flops /. 1e9) ~units:"GFLOP/s"
      (fun () ->
        Tensor_ops.conv2d img filt ~strides:(1, 1) ~padding:Tensor_ops.Same)
  in
  (* elementwise: broadcast-free map2 over a large buffer. *)
  let ew_n = if smoke then 1 lsl 18 else 1 lsl 22 in
  let x = Tensor.uniform rng [| ew_n |] ~lo:(-1.0) ~hi:1.0 in
  let y = Tensor.uniform rng [| ew_n |] ~lo:(-1.0) ~hi:1.0 in
  let ew_series =
    rate_series
      ~label:(Printf.sprintf "elementwise add %d elems" ew_n)
      ~work:(float_of_int ew_n /. 1e6) ~units:"M elems/s"
      (fun () -> Tensor_ops.add x y)
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
    series (fun t ->
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
        (unfused_s, fused_s, speedup))
  in
  let fc_best =
    List.fold_left (fun acc (_, (_, _, s)) -> Float.max acc s) 0.0 fc_series
  in
  (* Transposed-variant regression guard: every variant runs the same
     kernel with swapped strides, so none may cost more than a small
     factor over the plain path (strided loops once cost ~10x). Single
     timings of the small smoke shape spread 2x with the host's speed
     phase, so each trial times all four variants back to back, in a
     rotating order, and each variant reports its median trial. *)
  Parallel.set_threads saved_threads;
  let variants =
    [| (false, false); (true, false); (false, true); (true, true) |]
  in
  let trials = if smoke then 9 else 5 in
  let samples = Array.make_matrix (Array.length variants) trials 0.0 in
  for trial = 0 to trials - 1 do
    for j = 0 to Array.length variants - 1 do
      let v = (j + trial) mod Array.length variants in
      let ta, tb = variants.(v) in
      samples.(v).(trial) <-
        time_kernel ~iters (fun () ->
            Tensor_ops.matmul ~transpose_a:ta ~transpose_b:tb a b)
    done
  done;
  let median v = fst (median_and_best (Array.to_list samples.(v))) in
  let plain = median 0 and t_a = median 1 and t_b = median 2 in
  let t_ab = median 3 in
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
  write_json "BENCH_kernels.json"
    (Printf.sprintf
      "{\"bench\":\"kernels\",\"smoke\":%b,\"cores\":%d,\n\
       \"peak\":{\"gflops\":%.3f,\"method\":\"scalar multiply-add, L1-resident operands, 8 independent accumulators, 1 thread, best of trials\"},\n\
       \"gemm_roofline\":[%s],\n\
       \"conv_roofline\":[%s],\n\
       \"int8_gemm_roofline\":[%s],\n\
       \"data_movement\":%s,\n\
       \"pooling\":%s,\n\
       \"sparse_update\":%s,\n\
       \"small_elementwise\":%s,\n\
       \"matmul\":{\"dim\":%d,\"series\":[%s]},\n\
       \"conv2d\":{\"batch\":%d,\"size\":%d,\"in_channels\":%d,\"out_channels\":%d,\"series\":[%s]},\n\
       \"elementwise\":{\"elems\":%d,\"series\":[%s]},\n\
       \"fused_chain\":{\"elems\":%d,\"chain_ops\":%d,\"fused_kernels\":%d,\"fused_group\":%d,\"bit_identical\":%b,\"best_speedup\":%.2f,\"series\":[%s]},\n\
       \"matmul_variants\":{\"plain_ms\":%.3f,\"transpose_a_ms\":%.3f,\"transpose_b_ms\":%.3f,\"transpose_both_ms\":%.3f,\"worst_ratio\":%.3f}}\n"
      (smoke : bool)
      (Domain.recommended_domain_count ())
      peak
      (String.concat ",\n  " roofline)
      (String.concat ",\n  " conv_roofline)
      (String.concat ",\n  " int8_roofline)
      data_movement
      pooling
      sparse_update
      small_elementwise
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
      ratio);
  if ratio > 4.0 then
    fail
      "a transposed matmul variant is %.1fx slower than the plain path \
       (budget 4x)"
      ratio;
  (* Fusion guards: mechanism always (one fused kernel standing in for
     >= 10 ops, bit-identical fetch), and a speedup floor — in smoke
     mode merely faster than unfused; at full size the single-pass
     kernel must beat twelve memory passes by 3x. *)
  if fused_kernels <> 1 || fused_group < 10 || not fc_identical then
    fail
      "fused chain mechanism broken: %d fused kernel(s) covering %d ops, \
       bit-identical %b (want 1 kernel, >=10 ops, identical)"
      fused_kernels fused_group fc_identical;
  let fc_floor = if smoke then 1.0 else 3.0 in
  if fc_best <= fc_floor then
    fail "fused chain best speedup %.2fx does not clear the %.1fx floor"
      fc_best fc_floor

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
  let s =
    time_kernel ~iters:steps (fun () ->
        Octf.Session.run session [ loss; train_op ])
  in
  let peak =
    match
      Octf.Metrics.find_value Octf.Metrics.default "octf_mem_peak_bytes"
    with
    | Some v -> int_of_float v
    | None -> 0
  in
  (peak, 1.0 /. s)

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
  write_json "BENCH_memory.json"
    (Printf.sprintf
      "{\"bench\":\"memory\",\"smoke\":%b,\n\
       \"model\":{\"hidden\":%d,\"batch\":%d,\"steps\":%d},\n\
       \"planning_off\":{\"peak_live_bytes\":%d,\"steps_per_sec\":%.2f},\n\
       \"planning_on\":{\"peak_live_bytes\":%d,\"steps_per_sec\":%.2f},\n\
       \"peak_reduction\":%.3f}\n"
      (smoke : bool)
      hidden batch steps off_peak off_rate on_peak on_rate reduction);
  if reduction < 0.30 then
    fail "memory planning cut peak live bytes by only %.1f%% (budget 30%%)"
      (100.0 *. reduction)

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
  write_json "BENCH_pipeline.json"
    (Printf.sprintf
      "{\"bench\":\"pipeline\",\"smoke\":%b,\n\
       \"workload\":{\"steps\":%d,\"reader_delay_ms\":%.1f},\n\
       \"k1\":{\"steps_per_sec\":%.2f},\n\
       \"k2\":{\"steps_per_sec\":%.2f},\n\
       \"k4\":{\"steps_per_sec\":%.2f},\n\
       \"speedup_k4_over_k1\":%.3f}\n"
      (smoke : bool)
      steps delay_ms k1 k2 k4 speedup);
  if speedup < 1.5 then
    fail "K=4 pipeline gave only %.2fx over K=1 (budget 1.5x)" speedup

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("table1", table1);
    ("dispatch", dispatch_bechamel);
    ("dispatch-wide", dispatch_wide);
    ("kernels", kernels);
    ("memory", memory);
    ("pipeline", pipeline);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("softmax-ablation", softmax_ablation);
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
