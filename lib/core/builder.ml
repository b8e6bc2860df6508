open Octf_tensor

type t = {
  g : Graph.t;
  mutable device_stack : Device.spec list;
  mutable scope_stack : string list;  (* innermost first *)
  mutable control_stack : Node.endpoint list;
  mutable loop_counter : int;
}

type output = { node : Node.t; out : int }

let create () =
  {
    g = Graph.create ();
    device_stack = [];
    scope_stack = [];
    control_stack = [];
    loop_counter = 0;
  }

let graph b = b.g

let output ?(index = 0) node = { node; out = index }

let endpoint_of_output o = Node.endpoint o.node.Node.id o.out

let current_device b =
  List.fold_left
    (fun acc sp -> Device.merge_specs acc sp)
    Device.unconstrained b.device_stack

let scoped_name b base =
  match b.scope_stack with
  | [] -> base
  | scopes -> String.concat "/" (List.rev scopes) ^ "/" ^ base

let with_device b spec f =
  let parsed = Device.spec_of_string spec in
  b.device_stack <- parsed :: b.device_stack;
  Fun.protect
    ~finally:(fun () -> b.device_stack <- List.tl b.device_stack)
    f

let colocate_with b o f =
  let saved = b.device_stack in
  b.device_stack <- [ o.node.Node.device_spec ];
  Fun.protect ~finally:(fun () -> b.device_stack <- saved) f

let with_name_scope b scope f =
  b.scope_stack <- scope :: b.scope_stack;
  Fun.protect
    ~finally:(fun () -> b.scope_stack <- List.tl b.scope_stack)
    f

let with_control_dependencies b outputs f =
  let eps = List.map endpoint_of_output outputs in
  let saved = b.control_stack in
  b.control_stack <- eps @ saved;
  Fun.protect ~finally:(fun () -> b.control_stack <- saved) f

let op b ?name ?(attrs = []) ?device ?(control_inputs = []) ~op_type inputs =
  let device_spec =
    match device with
    | None -> current_device b
    | Some d -> Device.merge_specs (current_device b) (Device.spec_of_string d)
  in
  let name = Option.map (scoped_name b) name in
  let name =
    match name with Some n -> Some n | None -> Some (scoped_name b op_type)
  in
  let controls =
    List.map (fun o -> o.node.Node.id) control_inputs
    @ List.map (fun (e : Node.endpoint) -> e.node_id) b.control_stack
  in
  Graph.add_node b.g ?name
    ~inputs:(List.map endpoint_of_output inputs)
    ~control_inputs:(List.sort_uniq compare controls)
    ~attrs ~device:device_spec ~op_type ()

let op1 b ?name ?attrs ?device ?control_inputs ~op_type inputs =
  output (op b ?name ?attrs ?device ?control_inputs ~op_type inputs)

let const b ?name tensor =
  op1 b ?name ~attrs:[ ("value", Attr.Tensor tensor) ] ~op_type:"Const" []

let const_f b ?name v = const b ?name (Tensor.scalar_f v)

let const_i b ?name v = const b ?name (Tensor.scalar_i v)

let const_s b ?name v = const b ?name (Tensor.scalar_s v)

let placeholder b ?name ?(shape = Shape.scalar) dtype =
  op1 b ?name
    ~attrs:[ ("dtype", Attr.Dtype dtype); ("shape", Attr.Shape shape) ]
    ~op_type:"Placeholder" []

let variable b ?name ?device ~dtype ~shape () =
  op1 b ?name ?device
    ~attrs:[ ("dtype", Attr.Dtype dtype); ("shape", Attr.Shape shape) ]
    ~op_type:"Variable" []

let fill b ?name shape v =
  op1 b ?name
    ~attrs:[ ("shape", Attr.Shape shape); ("value", Attr.Float v) ]
    ~op_type:"Fill" []

let random_uniform b ?name ?(lo = 0.0) ?(hi = 1.0) shape =
  op1 b ?name
    ~attrs:
      [ ("shape", Attr.Shape shape); ("lo", Attr.Float lo);
        ("hi", Attr.Float hi) ]
    ~op_type:"RandomUniform" []

let random_normal b ?name ?(mean = 0.0) ?(stddev = 1.0) shape =
  op1 b ?name
    ~attrs:
      [ ("shape", Attr.Shape shape); ("mean", Attr.Float mean);
        ("stddev", Attr.Float stddev) ]
    ~op_type:"RandomNormal" []

let read b ?name var = op1 b ?name ~op_type:"Read" [ var ]

let assign b ?name var v = op1 b ?name ~op_type:"Assign" [ var; v ]

let assign_add b ?name var v = op1 b ?name ~op_type:"AssignAdd" [ var; v ]

let assign_sub b ?name var v = op1 b ?name ~op_type:"AssignSub" [ var; v ]

let scatter_add b ?name var indices updates =
  op1 b ?name ~op_type:"ScatterAdd" [ var; indices; updates ]

let scatter_sub b ?name var indices updates =
  op1 b ?name ~op_type:"ScatterSub" [ var; indices; updates ]

let scatter_update b ?name var indices updates =
  op1 b ?name ~op_type:"ScatterUpdate" [ var; indices; updates ]

let sparse_apply_adagrad b ?name ~epsilon var accum ~lr indices values =
  op1 b ?name
    ~attrs:[ ("epsilon", Attr.Float epsilon) ]
    ~op_type:"SparseApplyAdagrad"
    [ var; accum; lr; indices; values ]

let count_up b ?name var = op1 b ?name ~op_type:"CountUp" [ var ]

let binop op_type b ?name x y = op1 b ?name ~op_type [ x; y ]

let unop op_type b ?name x = op1 b ?name ~op_type [ x ]

let add b = binop "Add" b

let sub b = binop "Sub" b

let mul b = binop "Mul" b

let div b = binop "Div" b

let pow b = binop "Pow" b

let modulo b = binop "Mod" b

let maximum b = binop "Maximum" b

let minimum b = binop "Minimum" b

let neg b = unop "Neg" b

let abs b = unop "Abs" b

let sign b = unop "Sign" b

let exp b = unop "Exp" b

let log b = unop "Log" b

let sqrt b = unop "Sqrt" b

let square b = unop "Square" b

let reciprocal b = unop "Reciprocal" b

let add_n b ?name inputs = op1 b ?name ~op_type:"AddN" inputs

let matmul b ?name ?(transpose_a = false) ?(transpose_b = false) x y =
  op1 b ?name
    ~attrs:
      [ ("transpose_a", Attr.Bool transpose_a);
        ("transpose_b", Attr.Bool transpose_b) ]
    ~op_type:"MatMul" [ x; y ]

let equal b = binop "Equal" b

let less b = binop "Less" b

let greater b = binop "Greater" b

let greater_equal b = binop "GreaterEqual" b

let select b ?name cond x y = op1 b ?name ~op_type:"Select" [ cond; x; y ]

let cast b ?name x dtype =
  op1 b ?name ~attrs:[ ("dtype", Attr.Dtype dtype) ] ~op_type:"Cast" [ x ]

let argmax b ?name x ~axis =
  op1 b ?name ~attrs:[ ("axis", Attr.Int axis) ] ~op_type:"ArgMax" [ x ]

let reduction op_type b ?name ?(axes = []) ?(keep_dims = false) x =
  op1 b ?name
    ~attrs:[ ("axes", Attr.Ints axes); ("keep_dims", Attr.Bool keep_dims) ]
    ~op_type [ x ]

let reduce_sum b = reduction "ReduceSum" b

let reduce_mean b = reduction "ReduceMean" b

let reduce_max b = reduction "ReduceMax" b

let shape_of b ?name x = op1 b ?name ~op_type:"ShapeOf" [ x ]

let sum_to_shape b ?name x target =
  op1 b ?name ~op_type:"SumToShape" [ x; target ]

let zeros_like b ?name x = op1 b ?name ~op_type:"ZerosLike" [ x ]

let ones_like b ?name x = op1 b ?name ~op_type:"OnesLike" [ x ]

let identity b ?name x = op1 b ?name ~op_type:"Identity" [ x ]

let stop_gradient b ?name x = op1 b ?name ~op_type:"StopGradient" [ x ]

let reshape b ?name x shape =
  op1 b ?name ~attrs:[ ("shape", Attr.Shape shape) ] ~op_type:"Reshape" [ x ]

let expand_dims b ?name x ~axis =
  op1 b ?name ~attrs:[ ("axis", Attr.Int axis) ] ~op_type:"ExpandDims" [ x ]

let reshape_like b ?name x like =
  op1 b ?name ~op_type:"ReshapeLike" [ x; like ]

let transpose b ?name ?perm x =
  let attrs =
    match perm with
    | None -> []
    | Some p -> [ ("perm", Attr.Ints (Array.to_list p)) ]
  in
  op1 b ?name ~attrs ~op_type:"Transpose" [ x ]

let concat b ?name ~axis inputs =
  op1 b ?name ~attrs:[ ("axis", Attr.Int axis) ] ~op_type:"Concat" inputs

let slice b ?name x ~begin_ ~size =
  op1 b ?name
    ~attrs:
      [ ("begin", Attr.Ints (Array.to_list begin_));
        ("size", Attr.Ints (Array.to_list size)) ]
    ~op_type:"Slice" [ x ]

let pad b ?name x ~paddings =
  let flat =
    Array.to_list paddings |> List.concat_map (fun (a, c) -> [ a; c ])
  in
  op1 b ?name ~attrs:[ ("paddings", Attr.Ints flat) ] ~op_type:"Pad" [ x ]

let tile b ?name x ~multiples =
  op1 b ?name
    ~attrs:[ ("multiples", Attr.Ints (Array.to_list multiples)) ]
    ~op_type:"Tile" [ x ]

let pack b ?name inputs = op1 b ?name ~op_type:"Pack" inputs

let unpack b ?name x ~num =
  let node = op b ?name ~attrs:[ ("num", Attr.Int num) ] ~op_type:"Unpack" [ x ] in
  List.init num (fun i -> output ~index:i node)

let split b ?name x ~axis ~num =
  let node =
    op b ?name
      ~attrs:[ ("axis", Attr.Int axis); ("num", Attr.Int num) ]
      ~op_type:"Split" [ x ]
  in
  List.init num (fun i -> output ~index:i node)

let one_hot b ?name x ~depth =
  op1 b ?name ~attrs:[ ("depth", Attr.Int depth) ] ~op_type:"OneHot" [ x ]

let gather b ?name params indices =
  op1 b ?name ~op_type:"Gather" [ params; indices ]

let range_like b ?name x = op1 b ?name ~op_type:"RangeLike" [ x ]

let random_indices b ?name ~n ~range () =
  op1 b ?name
    ~attrs:[ ("n", Attr.Int n); ("range", Attr.Int range) ]
    ~op_type:"RandomIndices" []

let dynamic_partition b ?name data partitions ~num =
  let node =
    op b ?name
      ~attrs:[ ("num_partitions", Attr.Int num) ]
      ~op_type:"DynamicPartition" [ data; partitions ]
  in
  List.init num (fun i -> output ~index:i node)

let dynamic_stitch b ?name indices data =
  op1 b ?name
    ~attrs:[ ("n", Attr.Int (List.length indices)) ]
    ~op_type:"DynamicStitch" (indices @ data)

let scatter_into_shape b ?name shape indices updates =
  op1 b ?name ~op_type:"ScatterIntoShape" [ shape; indices; updates ]

let unique_segment_sum b ?name indices values =
  let node = op b ?name ~op_type:"UniqueSegmentSum" [ indices; values ] in
  (output ~index:0 node, output ~index:1 node)

let relu b = unop "Relu" b

let relu_grad b ?name dy x = op1 b ?name ~op_type:"ReluGrad" [ dy; x ]

let sigmoid b = unop "Sigmoid" b

let tanh b = unop "Tanh" b

let softmax b = unop "Softmax" b

let log_softmax b = unop "LogSoftmax" b

let softmax_cross_entropy b ?name ~logits ~labels () =
  let node = op b ?name ~op_type:"SoftmaxCrossEntropy" [ logits; labels ] in
  (output ~index:0 node, output ~index:1 node)

let padding_attr = function
  | `Same -> ("padding", Attr.String "SAME")
  | `Valid -> ("padding", Attr.String "VALID")

let conv2d b ?name ~strides ~padding input filter =
  let sh, sw = strides in
  op1 b ?name
    ~attrs:[ ("strides", Attr.Ints [ sh; sw ]); padding_attr padding ]
    ~op_type:"Conv2D" [ input; filter ]

let pool op_type b ?name ~ksize ~strides ~padding input =
  let kh, kw = ksize and sh, sw = strides in
  op1 b ?name
    ~attrs:
      [ ("ksize", Attr.Ints [ kh; kw ]); ("strides", Attr.Ints [ sh; sw ]);
        padding_attr padding ]
    ~op_type [ input ]

let max_pool b = pool "MaxPool" b

let avg_pool b = pool "AvgPool" b

let quantize b ?name x =
  let node = op b ?name ~op_type:"Quantize" [ x ] in
  (output ~index:0 node, output ~index:1 node, output ~index:2 node)

let dequantize b ?name q lo hi =
  op1 b ?name ~op_type:"Dequantize" [ q; lo; hi ]

let quantized_matmul b ?name (qa, a_lo, a_hi) (qb, b_lo, b_hi) =
  op1 b ?name ~op_type:"QuantizedMatMul" [ qa; a_lo; a_hi; qb; b_lo; b_hi ]

let quantize_range b ?name ~lo ~hi x =
  let node =
    op b ?name
      ~attrs:[ ("lo", Attr.Float lo); ("hi", Attr.Float hi) ]
      ~op_type:"QuantizeRange" [ x ]
  in
  (output ~index:0 node, output ~index:1 node, output ~index:2 node)

let quantized_conv2d b ?name ~strides ~padding (qi, i_lo, i_hi)
    (qf, f_lo, f_hi) =
  let sh, sw = strides in
  op1 b ?name
    ~attrs:[ ("strides", Attr.Ints [ sh; sw ]); padding_attr padding ]
    ~op_type:"QuantizedConv2D" [ qi; i_lo; i_hi; qf; f_lo; f_hi ]

(* Codes-out contractions: epilogue and calibrated output range ride as
   attrs (see Quant_kernels); a bias epilogue appends the float bias
   vector as input 6. *)
let q_attrs ~epilogue ~out_range =
  let ep =
    match epilogue with
    | `None -> "none"
    | `Bias -> "bias"
    | `Relu -> "relu"
    | `Bias_relu -> "bias_relu"
  in
  ("epilogue", Attr.String ep)
  ::
  (match out_range with
  | None -> []
  | Some (lo, hi) -> [ ("out_lo", Attr.Float lo); ("out_hi", Attr.Float hi) ])

let q_outputs node =
  (output ~index:0 node, output ~index:1 node, output ~index:2 node)

let quantized_matmul_q b ?name ?(epilogue = `None) ?out_range ?bias
    (qa, a_lo, a_hi) (qb, b_lo, b_hi) =
  let inputs =
    [ qa; a_lo; a_hi; qb; b_lo; b_hi ]
    @ match bias with None -> [] | Some bv -> [ bv ]
  in
  q_outputs
    (op b ?name ~attrs:(q_attrs ~epilogue ~out_range)
       ~op_type:"QuantizedMatMulQ" inputs)

let quantized_conv2d_q b ?name ?(epilogue = `None) ?out_range ?bias ~strides
    ~padding (qi, i_lo, i_hi) (qf, f_lo, f_hi) =
  let sh, sw = strides in
  let inputs =
    [ qi; i_lo; i_hi; qf; f_lo; f_hi ]
    @ match bias with None -> [] | Some bv -> [ bv ]
  in
  q_outputs
    (op b ?name
       ~attrs:
         (("strides", Attr.Ints [ sh; sw ])
         :: padding_attr padding
         :: q_attrs ~epilogue ~out_range)
       ~op_type:"QuantizedConv2DQ" inputs)

let fifo_queue b ?name ~capacity ~num_components () =
  op1 b ?name
    ~attrs:
      [ ("capacity", Attr.Int capacity);
        ("num_components", Attr.Int num_components) ]
    ~op_type:"FIFOQueue" []

let random_shuffle_queue b ?name ?(seed = 0) ~capacity ~num_components () =
  op1 b ?name
    ~attrs:
      [ ("capacity", Attr.Int capacity);
        ("num_components", Attr.Int num_components); ("seed", Attr.Int seed) ]
    ~op_type:"RandomShuffleQueue" []

let enqueue b ?name queue components =
  output (op b ?name ~op_type:"Enqueue" (queue :: components))

let enqueue_many b ?name queue components =
  output (op b ?name ~op_type:"EnqueueMany" (queue :: components))

let dequeue b ?name queue ~num_components =
  let node =
    op b ?name
      ~attrs:[ ("num_components", Attr.Int num_components) ]
      ~op_type:"Dequeue" [ queue ]
  in
  List.init num_components (fun i -> output ~index:i node)

let dequeue_many b ?name queue ~n ~num_components =
  let node =
    op b ?name
      ~attrs:
        [ ("n", Attr.Int n); ("num_components", Attr.Int num_components) ]
      ~op_type:"DequeueMany" [ queue ]
  in
  List.init num_components (fun i -> output ~index:i node)

let queue_close b ?name queue = output (op b ?name ~op_type:"QueueClose" [ queue ])

let queue_size b ?name queue = op1 b ?name ~op_type:"QueueSize" [ queue ]

let save b ?name ~filename entries =
  let names = List.map fst entries in
  let tensors = List.map snd entries in
  output
    (op b ?name
       ~attrs:[ ("tensor_names", Attr.Strings names) ]
       ~op_type:"Save" (filename :: tensors))

let tensor_array b ?name () = op1 b ?name ~op_type:"TensorArray" []

let tensor_array_write b ?name handle index v =
  op1 b ?name ~op_type:"TensorArrayWrite" [ handle; index; v ]

let tensor_array_read b ?name handle index =
  op1 b ?name ~op_type:"TensorArrayRead" [ handle; index ]

let tensor_array_size b ?name handle =
  op1 b ?name ~op_type:"TensorArraySize" [ handle ]

let tensor_array_stack b ?name handle =
  op1 b ?name ~op_type:"TensorArrayStack" [ handle ]

let record_reader b ?name ~files () =
  op1 b ?name ~attrs:[ ("files", Attr.Strings files) ] ~op_type:"RecordReader"
    []

let read_record b ?name reader = op1 b ?name ~op_type:"ReadRecord" [ reader ]

let decode_example b ?name record ~features =
  let node =
    op b ?name
      ~attrs:[ ("tensor_names", Attr.Strings features) ]
      ~op_type:"DecodeExample" [ record ]
  in
  List.mapi (fun i _ -> output ~index:i node) features

let restore b ?name ~filename names =
  let node =
    op b ?name
      ~attrs:[ ("tensor_names", Attr.Strings names) ]
      ~op_type:"Restore" [ filename ]
  in
  List.mapi (fun i _ -> output ~index:i node) names

let no_op b ?name ?(control_inputs = []) () =
  output (op b ?name ~control_inputs ~op_type:"NoOp" [])

let group b ?name deps = no_op b ?name ~control_inputs:deps ()

let switch b ?name data pred =
  let node = op b ?name ~op_type:"Switch" [ data; pred ] in
  (output ~index:0 node, output ~index:1 node)

let merge b ?name inputs = op1 b ?name ~op_type:"Merge" inputs

let cond b ?name pred ~inputs ~then_ ~else_ =
  if inputs = [] then invalid_arg "Builder.cond: needs at least one input";
  let base = Option.value ~default:"cond" name in
  with_name_scope b base (fun () ->
      let switched = List.map (fun x -> switch b x pred) inputs in
      let false_side = List.map fst switched in
      let true_side = List.map snd switched in
      let then_outs = with_name_scope b "then" (fun () -> then_ b true_side) in
      let else_outs = with_name_scope b "else" (fun () -> else_ b false_side) in
      if List.length then_outs <> List.length else_outs then
        invalid_arg "Builder.cond: branches return different arities";
      (* Gate each branch result on that branch's pivot so results that do
         not data-depend on a switched input still die with the branch.
         Control deadness is node-level, and a Switch node always has one
         live output, so the pivot is an Identity of the branch side —
         that node is dead exactly when the branch is untaken. *)
      let gate pivot outs =
        let pivot_id = op1 b ~op_type:"Identity" [ pivot ] in
        List.map
          (fun o ->
            op1 b ~control_inputs:[ pivot_id ] ~op_type:"Identity" [ o ])
          outs
      in
      let then_outs = gate (List.hd true_side) then_outs in
      let else_outs = gate (List.hd false_side) else_outs in
      (* Annotate each Merge with its predicate so Gradients can build
         the backward conditional (grad of Merge = Switch of the
         incoming gradient on the same predicate, §4.1). *)
      let pred_attrs =
        [
          ("pred_node", Attr.Int pred.node.Node.id);
          ("pred_index", Attr.Int pred.out);
        ]
      in
      List.map2
        (fun t e -> op1 b ~attrs:pred_attrs ~op_type:"Merge" [ t; e ])
        then_outs else_outs)

let enter b ?name ~frame ?(is_constant = false) x =
  op1 b ?name
    ~attrs:
      [ ("frame_name", Attr.String frame);
        ("is_constant", Attr.Bool is_constant) ]
    ~op_type:"Enter" [ x ]

let exit_ b ?name x = op1 b ?name ~op_type:"Exit" [ x ]

let next_iteration b ?name x = op1 b ?name ~op_type:"NextIteration" [ x ]

let loop_cond b ?name x = op1 b ?name ~op_type:"LoopCond" [ x ]

let while_loop b ?name ?(invariants = []) ~cond:cond_fn ~body init =
  let frame =
    match name with
    | Some n -> n
    | None ->
        b.loop_counter <- b.loop_counter + 1;
        Printf.sprintf "while_%d" b.loop_counter
  in
  with_name_scope b frame (fun () ->
      let enters = List.map (fun x -> enter b ~frame x) init in
      let const_enters =
        List.map (fun x -> enter b ~frame ~is_constant:true x) invariants
      in
      (* Merge each loop variable with its (future) NextIteration value;
         slot 1 is a self-placeholder patched below. *)
      let merges = List.map (fun e -> merge b [ e; e ]) enters in
      let pred = cond_fn b (merges @ const_enters) in
      let lc = loop_cond b pred in
      let switched = List.map (fun m -> switch b m lc) merges in
      let exits = List.map (fun (f, _) -> exit_ b f) switched in
      (* The body sees the live loop variables followed by the
         constant-entered invariants. *)
      let body_inputs = List.map snd switched @ const_enters in
      let next = body b body_inputs in
      if List.length next <> List.length init then
        invalid_arg "Builder.while_loop: body arity mismatch";
      let nis = List.map (fun x -> next_iteration b x) next in
      List.iter2
        (fun m ni ->
          Graph.set_input b.g ~node_id:m.node.Node.id ~slot:1
            (endpoint_of_output ni))
        merges nis;
      exits)
