(* Per-layer readings, taken from outside the program: step statistics
   of traced steps, octf_* counters, the GC, and kernel calls made
   directly on Tensor_ops and Quant_kernels. *)

open Octf_tensor

let now = Unix.gettimeofday

(* Kernel classes of the tensor.* / state_kernels.* / quant_kernels.* /
   rendezvous.* metrics, by op type. Unlisted op types (control flow,
   Const, Read, Identity, Reshape...) count toward executor.kernel_ms
   only. *)
let op_class = function
  | "Conv2D" -> Some "tensor.conv_ms"
  | "Conv2DGradInput" | "Conv2DGradFilter" -> Some "tensor.conv_grad_ms"
  | "MatMul" -> Some "tensor.matmul_ms"
  | "Add" | "Sub" | "Mul" | "Div" | "Pow" | "Mod" | "Maximum" | "Minimum"
  | "Neg" | "Abs" | "Sign" | "Exp" | "Log" | "Sqrt" | "Square" | "Reciprocal"
  | "Equal" | "Less" | "Greater" | "GreaterEqual" | "Select" | "Relu"
  | "ReluGrad" | "Sigmoid" | "Tanh" | "AddN" | "Cast" | "FusedElementwise"
  | "ZerosLike" | "OnesLike" | "Fill" ->
      Some "tensor.elementwise_ms"
  | "MaxPool" | "MaxPoolGrad" | "AvgPool" | "AvgPoolGrad" -> Some "tensor.pool_ms"
  | "Slice" | "SliceGrad" | "Concat" | "ConcatGrad" | "Gather" | "Transpose"
  | "DynamicPartition" | "DynamicPartitionGrad" | "DynamicStitch" | "Split"
  | "Pack" | "Unpack" | "Pad" | "PadGrad" | "Tile" | "TileGrad"
  | "ScatterIntoShape" | "OneHot" ->
      Some "tensor.array_ms"
  | "ReduceSum" | "ReduceMean" | "ReduceMax" | "ReduceSumGrad"
  | "ReduceMeanGrad" | "SumToShape" | "Softmax" | "LogSoftmax"
  | "SoftmaxCrossEntropy" | "ArgMax" ->
      Some "tensor.reduce_ms"
  | "Assign" | "AssignAdd" | "AssignSub" | "ScatterAdd" | "ScatterSub"
  | "ScatterUpdate" | "CountUp" ->
      Some "state_kernels.update_ms"
  | "Quantize" | "QuantizeRange" | "Dequantize" | "QuantizedMatMul"
  | "QuantizedConv2D" | "QuantizedMatMulQ" | "QuantizedConv2DQ" ->
      Some "quant_kernels.kernel_ms"
  | "Send" -> Some "rendezvous.send_ms"
  | "Recv" -> Some "rendezvous.recv_ms"
  | _ -> None

let class_metrics =
  [
    "tensor.conv_ms"; "tensor.conv_grad_ms"; "tensor.matmul_ms";
    "tensor.elementwise_ms"; "tensor.pool_ms"; "tensor.array_ms";
    "tensor.reduce_ms"; "state_kernels.update_ms"; "quant_kernels.kernel_ms";
    "rendezvous.send_ms"; "rendezvous.recv_ms";
  ]

(* Readings of one traced step, keyed by metric name. *)
let of_step (md : Octf.Session.Run_metadata.t) =
  let stats =
    match md.step_stats with
    | Some s -> s
    | None -> invalid_arg "Layers.of_step: step ran without collect_stats"
  in
  let step_ms = md.wall_time *. 1e3 in
  let kernel_ms = Octf.Step_stats.total_time stats *. 1e3 in
  let kernels = List.length stats.nodes in
  let by_class = Hashtbl.create 16 in
  List.iter
    (fun (op, _, secs) ->
      match op_class op with
      | Some c ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_class c) in
          Hashtbl.replace by_class c (prev +. (secs *. 1e3))
      | None -> ())
    (Octf.Step_stats.by_op_type stats);
  let peak =
    List.fold_left (fun m n -> max m n.Octf.Step_stats.peak_bytes) 0 stats.nodes
  in
  [
    ("executor.step_ms", step_ms);
    ("executor.kernel_ms", kernel_ms);
    ("executor.overhead_ms", Stats.overhead_ms ~step_ms ~kernel_ms);
    ( "executor.overhead_us_per_kernel",
      Stats.overhead_us_per_kernel ~step_ms ~kernel_ms ~kernels );
    ("graph_optimizer.kernels_per_step", float_of_int kernels);
    ( "graph_optimizer.fused_groups",
      float_of_int (List.length (Octf.Step_stats.fusion_groups stats)) );
    ("mem_plan.peak_live_mb", float_of_int peak /. 1e6);
  ]
  @ List.map
      (fun c -> (c, Option.value ~default:0.0 (Hashtbl.find_opt by_class c)))
      class_metrics

(* Median of each reading over several traced steps. *)
let median_readings = function
  | [] -> []
  | first :: _ as steps ->
      List.map
        (fun (name, _) ->
          (name, Stats.median_list (List.map (List.assoc name) steps)))
        first

let write_trace ~name (md : Octf.Session.Run_metadata.t) =
  match md.tracer with
  | None -> "none"
  | Some tr ->
      let dir = ".perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".trace.json") in
      let oc = open_out path in
      output_string oc (Octf.Tracer.to_chrome_trace tr);
      close_out oc;
      Printf.sprintf "%S" path

(* Traced steps per traced run, at most: enough for stable medians. *)
let max_traced = 40

(* Run [step] (a step with [collect_stats]) for [seconds], at least 3
   and at most [max_traced] times. Returns the median readings, the step
   count, and the Chrome trace of the last step, written under
   .perfbench/. *)
let traced ~name ~seconds step =
  let steps = ref [] and last = ref None in
  let t_end = now () +. seconds in
  while (now () < t_end && List.length !steps < max_traced) || List.length !steps < 3 do
    let md = step () in
    steps := of_step md :: !steps;
    last := Some md
  done;
  (median_readings !steps, List.length !steps, write_trace ~name (Option.get !last))

(* {1 Counters} *)

let counter name =
  Option.value ~default:0.0 (Octf.Metrics.find_value Octf.Metrics.default name)

(* Counter and GC readings, differenced around a phase. *)
type snapshot = {
  sends : float;
  send_bytes : float;
  grants : float;
  pool : Buffer_pool.stats;
  gc : Gc.stat;
}

let snapshot () =
  {
    sends = counter "octf_rendezvous_sends_total";
    send_bytes = counter "octf_rendezvous_send_bytes_total";
    grants = counter "octf_mem_inplace_grants_total";
    pool = Buffer_pool.stats ();
    gc = Gc.quick_stat ();
  }

(* Per-step counts between two snapshots. Exact when the phase is a
   fixed sequence of steps: the rendezvous bytes depend on the inputs
   (the embedding's sparse gradient has one row per distinct token). *)
let per_step ~steps a b =
  let per_step x = x /. float_of_int (max 1 steps) in
  [
    ("rendezvous.sends_per_step", per_step (b.sends -. a.sends));
    ("rendezvous.bytes_per_step", per_step (b.send_bytes -. a.send_bytes));
    ("mem_plan.inplace_grants_per_step", per_step (b.grants -. a.grants));
  ]

(* Buffer-pool and GC rates between two snapshots. *)
let rates ~items a b =
  let hits = float_of_int (b.pool.hits - a.pool.hits) in
  let misses = float_of_int (b.pool.misses - a.pool.misses) in
  let minor_words = b.gc.Gc.minor_words -. a.gc.Gc.minor_words in
  let majors = float_of_int (b.gc.Gc.major_collections - a.gc.Gc.major_collections) in
  [
    ("buffer_pool.hits", hits);
    ("buffer_pool.misses", misses);
    ("buffer_pool.hit_ratio", Stats.ratio hits (hits +. misses));
    ( "gc.minor_mb_per_item",
      Stats.ratio (minor_words *. float_of_int (Sys.word_size / 8) /. 1e6) items );
    ("gc.major_per_1k_items", Stats.ratio (majors *. 1e3) items);
  ]

(* {1 Kernel microbenchmarks}

   Each call is timed in blocks for [seconds]; the median block gives
   the per-call time. Operation counts and bytes moved are computed from
   the shapes: a multiply-add is two operations, and bytes count every
   operand read once and the result written once. *)

let time_call ~seconds f =
  ignore (f ());
  let t = now () in
  ignore (f ());
  (* Blocks of about 20 ms keep the clock reads out of the timing. *)
  let block = max 1 (int_of_float (0.02 /. Float.max 1e-6 (now () -. t))) in
  let samples = ref [] and t_end = now () +. seconds in
  while now () < t_end || List.length !samples < 3 do
    let t = now () in
    for _ = 1 to block do
      ignore (f ())
    done;
    samples := ((now () -. t) /. float_of_int block) :: !samples
  done;
  Stats.median_list !samples

let rand rng shape = Tensor.uniform rng shape ~lo:(-1.0) ~hi:1.0

(* [m x k] by [k x n] float matmul. *)
let matmul_bench ~seconds rng ~m ~k ~n =
  let a = rand rng [| m; k |] and b = rand rng [| k; n |] in
  let secs = time_call ~seconds (fun () -> Tensor_ops.matmul a b) in
  let flop = 2.0 *. float_of_int (m * k * n) in
  let bytes = 4.0 *. float_of_int ((m * k) + (k * n) + (m * n)) in
  [
    ("tensor.matmul_flop", flop);
    ("tensor.matmul_bytes", bytes);
    ("tensor.matmul_gflops", flop /. secs /. 1e9);
  ]

(* SAME-padded stride-1 NHWC convolution. *)
let conv_bench ~seconds rng ~batch ~side ~cin ~cout ~ksize =
  let x = rand rng [| batch; side; side; cin |] in
  let w = rand rng [| ksize; ksize; cin; cout |] in
  let secs =
    time_call ~seconds (fun () ->
        Tensor_ops.conv2d x w ~strides:(1, 1) ~padding:Tensor_ops.Same)
  in
  let out = batch * side * side * cout in
  let flop = 2.0 *. float_of_int (out * ksize * ksize * cin) in
  let bytes =
    4.0
    *. float_of_int ((batch * side * side * cin) + (ksize * ksize * cin * cout) + out)
  in
  [
    ("tensor.conv_flop", flop);
    ("tensor.conv_bytes", bytes);
    ("tensor.conv_gflops", flop /. secs /. 1e9);
  ]

(* [m x k] by [k x n] uint8 matmul, float result. *)
let quant_matmul_bench ~seconds rng ~m ~k ~n =
  let qa, alo, ahi = Octf.Quant_kernels.quantize (rand rng [| m; k |]) in
  let qb, blo, bhi = Octf.Quant_kernels.quantize (rand rng [| k; n |]) in
  let secs =
    time_call ~seconds (fun () ->
        Octf.Quant_kernels.quantized_matmul qa alo ahi qb blo bhi)
  in
  let ops = 2.0 *. float_of_int (m * k * n) in
  let bytes = float_of_int ((m * k) + (k * n)) +. (4.0 *. float_of_int (m * n)) in
  [
    ("quant_kernels.matmul_ops", ops);
    ("quant_kernels.matmul_bytes", bytes);
    ("quant_kernels.matmul_gops", ops /. secs /. 1e9);
  ]
