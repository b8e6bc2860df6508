(* train_convnet: a 28x28 MNIST-style convnet trained by synchronous SGD
   on one device. Kernel-bound: Conv2D, its gradients and MatMul take
   most of the step, and executor overhead is a few percent, so a GEMM or
   convolution change shows here and a dispatch change does not. *)

open Octf_tensor
module B = Octf.Builder
module Vs = Octf_nn.Var_store
module L = Octf_nn.Layers

let batch = 8
let side = 28
let classes = 10
let c1 = 8
let c2 = 16
let hidden = 64

(* Distinct input batches generated from the seed, cycled by the steps. *)
let pool = 32

type model = {
  graph : Octf.Graph.t;
  pixels : B.output;
  labels : B.output;
  logits : B.output;
  taps : B.output list;  (** activations observed by int8 calibration *)
  loss : B.output;
  train_op : B.output;
  init : B.output;
}

let build ~seed =
  let b = B.create () in
  let store = Vs.create ~seed b in
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let labels = B.placeholder b ~name:"labels" Dtype.I32 in
  let conv1 =
    L.conv2d store ~activation:`Relu ~name:"conv1" ~in_channels:1
      ~out_channels:c1 ~ksize:(5, 5) pixels
  in
  let pool1 = L.max_pool2d b ~ksize:(2, 2) conv1 in
  let conv2 =
    L.conv2d store ~activation:`Relu ~name:"conv2" ~in_channels:c1
      ~out_channels:c2 ~ksize:(5, 5) pool1
  in
  let pool2 = L.max_pool2d b ~ksize:(2, 2) conv2 in
  let features = side / 4 * (side / 4) * c2 in
  let flat = L.flatten b ~features pool2 in
  let fc1 =
    L.dense store ~activation:`Relu ~name:"fc1" ~in_dim:features
      ~out_dim:hidden flat
  in
  let logits = L.dense store ~name:"logits" ~in_dim:hidden ~out_dim:classes fc1 in
  let loss =
    Octf_nn.Losses.sparse_softmax_cross_entropy_mean b ~num_classes:classes
      ~logits ~labels
  in
  let train_op = Octf_train.Optimizer.minimize store ~lr:0.05 ~loss () in
  {
    graph = B.graph b;
    pixels;
    labels;
    logits;
    taps = [ conv1; pool1; conv2; pool2; flat; fc1 ];
    loss;
    train_op;
    init = Vs.init_op store;
  }

let inputs ~seed =
  let rng = Rng.create seed in
  Array.init pool (fun _ ->
      Octf_data.Synthetic.image_batch rng ~batch ~size:side ~channels:1 ~classes)

let setup ~seed ~inputs () =
  let m = build ~seed in
  let session = Octf.Session.create ~config:(Harness.config ~seed ()) m.graph in
  Octf.Session.run_unit session [ m.init ];
  let t = Unix.gettimeofday () in
  Octf.Session.precompile ~feeds:[ m.pixels; m.labels ] ~targets:[ m.train_op ]
    session [ m.loss ];
  let compile_ms = (Unix.gettimeofday () -. t) *. 1e3 in
  let step ?(stats = false) i =
    let img = inputs.(i mod pool) in
    let options =
      Octf.Session.Run_options.v
        ~feeds:
          [
            (m.pixels, img.Octf_data.Synthetic.pixels);
            (m.labels, img.Octf_data.Synthetic.labels);
          ]
        ~targets:[ m.train_op ] ~collect_stats:stats ()
    in
    match Octf.Session.run_with_metadata ~options session [ m.loss ] with
    | [ l ], md -> (Tensor.flat_get_f l 0, md)
    | _ -> failwith "train_convnet: expected one fetch"
  in
  let warm_losses = List.init Train.warmup (fun i -> fst (step i)) in
  { Train.step; compile_ms; warm_losses }

(* Dominant kernel shapes: conv2 (and its im2col GEMM), and fc1. *)
let micro ~seconds =
  let rng = Rng.create 1 in
  Layers.conv_bench ~seconds rng ~batch ~side:(side / 2) ~cin:c1 ~cout:c2 ~ksize:5
  @ Layers.matmul_bench ~seconds rng ~m:batch ~k:(side / 4 * (side / 4) * c2) ~n:hidden
  @ Layers.quant_matmul_bench ~seconds rng ~m:batch
      ~k:(side / 4 * (side / 4) * c2) ~n:hidden

let run ~seed ~seconds ~trace =
  let inputs = inputs ~seed in
  Train.run ~name:"train_convnet" ~seconds ~trace
    ~items_per_step:(float_of_int batch) ~rss_after:250 ~pool
    ~setup:(setup ~seed ~inputs) ~micro
