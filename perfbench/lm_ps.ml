(* train_lm_ps: an unrolled LSTM language model on an in-process
   cluster in the paper's parameter-server layout (§4.2). The two-shard
   embedding and the sampled-softmax weights live on two /job:ps tasks,
   the LSTM on /job:worker. Every step gathers rows across tasks and
   sends sparse updates back, so the step is dispatch- and
   rendezvous-bound: Send/Recv, placement or dispatch changes show here
   and not on train_convnet. *)

open Octf_tensor
module B = Octf.Builder
module Vs = Octf_nn.Var_store

let vocab = 2048
let dim = 32
let unroll = 4
let batch = 16
let num_sampled = 64
let pool = 32
let ps0 = "/job:ps/task:0"
let ps1 = "/job:ps/task:1"
let worker = "/job:worker/task:0"

type model = {
  graph : Octf.Graph.t;
  inputs : B.output;
  targets : B.output;
  loss : B.output;
  train_op : B.output;
  init : B.output;
}

let build ~seed =
  let b = B.create () in
  let store = Vs.create ~seed b in
  let inputs = B.placeholder b ~name:"inputs" ~shape:[| batch; unroll |] Dtype.I32 in
  let targets = B.placeholder b ~name:"targets" ~shape:[| batch; unroll |] Dtype.I32 in
  let embedding =
    Octf_nn.Embedding.create store ~devices:[ ps0; ps1 ] ~name:"embedding"
      ~vocab ~dim ~num_shards:2 ()
  in
  let softmax_w =
    Vs.get store ~device:ps1
      ~init:(Octf_nn.Init.uniform ~lo:(-0.08) ~hi:0.08 ())
      ~name:"softmax_w" [| vocab; dim |]
  in
  let column t x =
    B.reshape b (B.slice b x ~begin_:[| 0; t |] ~size:[| batch; 1 |]) [| batch |]
  in
  let loss =
    B.with_device b worker (fun () ->
        let cell = Octf_nn.Lstm.cell store ~name:"lstm" ~input_dim:dim ~units:dim in
        let xs =
          List.init unroll (fun t ->
              Octf_nn.Embedding.lookup embedding b (column t inputs))
        in
        let hs = Octf_nn.Lstm.unroll cell b ~xs ~batch in
        let losses =
          List.mapi
            (fun t h ->
              Octf_nn.Sampled_softmax.sampled_softmax_loss b
                ~weights:softmax_w.Vs.read ~hidden:h ~labels:(column t targets)
                ~num_sampled ~num_classes:vocab)
            hs
        in
        B.div b (B.add_n b losses) (B.const_f b (float_of_int unroll)))
  in
  let train_op =
    Octf_train.Optimizer.minimize store
      ~algorithm:Octf_train.Optimizer.adagrad_default ~clip_norm:5.0 ~lr:0.3
      ~loss ()
  in
  { graph = B.graph b; inputs; targets; loss; train_op; init = Vs.init_op store }

let inputs ~seed =
  let rng = Rng.create seed in
  let stream =
    Octf_data.Synthetic.token_stream rng ~vocab ~length:20_000 ~zipf_s:1.2
  in
  Array.init pool (fun i ->
      Octf_data.Synthetic.lm_batch rng ~stream ~batch ~unroll
        ~position:(i * batch * unroll))

let setup ~seed ~inputs () =
  let m = build ~seed in
  let cluster =
    Octf.Cluster.create
      ~jobs:[ ("ps", 2, [ Octf.Device.CPU ]); ("worker", 1, [ Octf.Device.CPU ]) ]
  in
  let session = Octf.Cluster.session ~config:(Harness.config ~seed ()) cluster m.graph in
  Octf.Session.run_unit session [ m.init ];
  let t = Unix.gettimeofday () in
  Octf.Session.precompile ~feeds:[ m.inputs; m.targets ] ~targets:[ m.train_op ]
    session [ m.loss ];
  let compile_ms = (Unix.gettimeofday () -. t) *. 1e3 in
  let step ?(stats = false) i =
    let xs, ys = inputs.(i mod pool) in
    let options =
      Octf.Session.Run_options.v
        ~feeds:[ (m.inputs, xs); (m.targets, ys) ]
        ~targets:[ m.train_op ] ~collect_stats:stats ()
    in
    match Octf.Session.run_with_metadata ~options session [ m.loss ] with
    | [ l ], md -> (Tensor.flat_get_f l 0, md)
    | _ -> failwith "train_lm_ps: expected one fetch"
  in
  let warm_losses = List.init Train.warmup (fun i -> fst (step i)) in
  { Train.step; compile_ms; warm_losses }

(* Dominant kernel shapes: the LSTM gate GEMM and the sampled logits. *)
let micro ~seconds =
  let rng = Rng.create 1 in
  Layers.matmul_bench ~seconds rng ~m:batch ~k:(2 * dim) ~n:(4 * dim)
  @ Layers.quant_matmul_bench ~seconds rng ~m:batch ~k:(2 * dim) ~n:(4 * dim)

let run ~seed ~seconds ~trace =
  let inputs = inputs ~seed in
  Train.run ~name:"train_lm_ps" ~seconds ~trace
    ~items_per_step:(float_of_int (batch * unroll)) ~rss_after:250
    ~pool ~setup:(setup ~seed ~inputs) ~micro
