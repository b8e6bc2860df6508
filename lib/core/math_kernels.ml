(* Mathematical operation kernels (§5). Registered for CPU and the
   simulated GPU; both run the same host implementation. *)

open Octf_tensor
module K = Kernel

let t v = Value.Tensor v

(* Elementwise kernels declare May_alias pairs: when the executor's
   memory planner proves an input buffer is exclusively owned it grants
   an in-place write, which the [?out] argument of the tensor ops
   accepts (falling back to a fresh allocation if broadcasting changed
   the element count). Comparison ops produce bool tensors and cannot
   alias their float inputs. *)
let unary name f =
  K.register ~op_type:name ~aliases:[ (0, 0) ] (fun ctx ->
      K.one
        (t (f ?out:(K.granted_buffer ctx ~output:0) (K.input_tensor ctx 0))))

let binary name f =
  K.register ~op_type:name ~aliases:[ (0, 0); (1, 0) ] (fun ctx ->
      K.one
        (t
           (f
              ?out:(K.granted_buffer ctx ~output:0)
              (K.input_tensor ctx 0) (K.input_tensor ctx 1))))

let binary_cmp name f =
  K.register ~op_type:name (fun ctx ->
      K.one (t (f (K.input_tensor ctx 0) (K.input_tensor ctx 1))))

let reduce name f =
  K.register ~op_type:name (fun ctx ->
      let axes =
        match Attr.find_ints ctx.K.node.Node.attrs "axes" with
        | Some l -> l
        | None -> []
      in
      let keep_dims =
        Option.value ~default:false
          (Attr.find_bool ctx.K.node.Node.attrs "keep_dims")
      in
      K.one (t (f ~axes ~keep_dims (K.input_tensor ctx 0))))

(* Reduce [x] to a target shape by summing the axes that broadcasting
   expanded; the runtime counterpart of gradient shape restoration. *)
let sum_to_shape x target =
  let xs = Tensor.shape x in
  if Shape.equal xs target then x
  else begin
    let extra = Shape.rank xs - Shape.rank target in
    if extra < 0 then
      invalid_arg "SumToShape: target has higher rank than input";
    let leading = List.init extra (fun i -> i) in
    let x = Tensor_ops.reduce_sum ~axes:leading x in
    let xs = Tensor.shape x in
    let ones =
      List.filteri (fun i _ -> target.(i) = 1 && xs.(i) <> 1)
        (Array.to_list (Array.mapi (fun i _ -> i) target))
    in
    let x =
      if ones = [] then x else Tensor_ops.reduce_sum ~axes:ones ~keep_dims:true x
    in
    if Shape.equal (Tensor.shape x) target then x
    else Tensor.reshape x target
  end

let register () =
  K.register ~op_type:"Const" (fun ctx ->
      K.one (t (Node.attr_tensor ctx.K.node "value")));
  K.register ~op_type:"Placeholder" (fun ctx ->
      failwith
        (Printf.sprintf "placeholder %S was not fed" ctx.K.node.Node.name));
  binary "Add" Tensor_ops.add;
  binary "Sub" Tensor_ops.sub;
  binary "Mul" Tensor_ops.mul;
  binary "Div" Tensor_ops.div;
  binary "Pow" Tensor_ops.pow;
  binary "Mod" Tensor_ops.modulo;
  binary "Maximum" Tensor_ops.maximum;
  binary "Minimum" Tensor_ops.minimum;
  unary "Neg" Tensor_ops.neg;
  unary "Abs" Tensor_ops.abs;
  unary "Sign" Tensor_ops.sign;
  unary "Exp" Tensor_ops.exp;
  unary "Log" Tensor_ops.log;
  unary "Sqrt" Tensor_ops.sqrt;
  unary "Square" Tensor_ops.square;
  unary "Reciprocal" Tensor_ops.reciprocal;
  binary_cmp "Equal" Tensor_ops.equal;
  binary_cmp "Less" Tensor_ops.less;
  binary_cmp "Greater" Tensor_ops.greater;
  binary_cmp "GreaterEqual" Tensor_ops.greater_equal;
  K.register ~op_type:"Select" (fun ctx ->
      K.one
        (t
           (Tensor_ops.select (K.input_tensor ctx 0) (K.input_tensor ctx 1)
              (K.input_tensor ctx 2))));
  (* AddN and FusedElementwise compile their program once per plan
     node. AddN sums in the left-fold order of [Fused_eval.add_n]; the
     fused expression is the postfix "expr" attribute written by the
     Fuse pass. Both may write into input 0's buffer when the planner
     grants it (the grant is only length-compatible when that input's
     broadcast plan is the identity, so read-i-before-write-i holds). *)
  let program_kernel p ctx =
    K.one
      (t
         (Fused_eval.run
            ?out:(K.granted_buffer ctx ~output:0)
            p
            (Array.map Value.tensor ctx.K.inputs)))
  in
  K.register_per_node ~op_type:"AddN" ~aliases:[ (0, 0) ] (fun node ->
      match Array.length node.Node.inputs with
      | 0 -> fun _ -> invalid_arg "AddN: no inputs"
      (* The single-input sum must still be a fresh buffer: the planner
         may recycle the input's backing store once AddN completes. *)
      | 1 -> fun ctx -> K.one (t (Tensor.copy (K.input_tensor ctx 0)))
      | k -> program_kernel (Fused_eval.compile (Fused_eval.add_n k)));
  K.register_per_node ~op_type:"FusedElementwise" ~aliases:[ (0, 0) ]
    (fun node ->
      program_kernel
        (Fused_eval.compile
           (Fused_eval.of_postfix (Attr.get_strings node.Node.attrs "expr"))));
  K.register ~op_type:"MatMul" (fun ctx ->
      let transpose_a =
        Option.value ~default:false
          (Attr.find_bool ctx.K.node.Node.attrs "transpose_a")
      and transpose_b =
        Option.value ~default:false
          (Attr.find_bool ctx.K.node.Node.attrs "transpose_b")
      in
      K.one
        (t
           (Tensor_ops.matmul ~transpose_a ~transpose_b
              (K.input_tensor ctx 0) (K.input_tensor ctx 1))));
  K.register ~op_type:"Cast" (fun ctx ->
      let dtype = Node.attr_dtype ctx.K.node "dtype" in
      K.one (t (Tensor.cast (K.input_tensor ctx 0) dtype)));
  K.register ~op_type:"ArgMax" (fun ctx ->
      let axis = Node.attr_int ctx.K.node "axis" in
      K.one (t (Tensor_ops.argmax (K.input_tensor ctx 0) ~axis)));
  reduce "ReduceSum" (fun ~axes ~keep_dims x ->
      Tensor_ops.reduce_sum ~axes ~keep_dims x);
  reduce "ReduceMean" (fun ~axes ~keep_dims x ->
      Tensor_ops.reduce_mean ~axes ~keep_dims x);
  reduce "ReduceMax" (fun ~axes ~keep_dims x ->
      Tensor_ops.reduce_max ~axes ~keep_dims x);
  K.register ~op_type:"ShapeOf" (fun ctx ->
      let s = Tensor.shape (K.input_tensor ctx 0) in
      K.one (t (Tensor.of_int_array [| Array.length s |] (Array.copy s))));
  K.register ~op_type:"SumToShape" (fun ctx ->
      let x = K.input_tensor ctx 0 in
      let target = Tensor.to_int_array (K.input_tensor ctx 1) in
      K.one (t (sum_to_shape x target)));
  K.register ~op_type:"ZerosLike" (fun ctx ->
      let x = K.input_tensor ctx 0 in
      K.one (t (Tensor.zeros (Tensor.dtype x) (Tensor.shape x))));
  K.register ~op_type:"OnesLike" (fun ctx ->
      let x = K.input_tensor ctx 0 in
      K.one (t (Tensor.ones (Tensor.dtype x) (Tensor.shape x))));
  K.register ~op_type:"Fill" (fun ctx ->
      let shape = Node.attr_shape ctx.K.node "shape" in
      let v = Node.attr_float ctx.K.node "value" in
      K.one (t (Tensor.full Dtype.F32 shape v)));
  K.register ~op_type:"RandomUniform" ~random:true (fun ctx ->
      let shape = Node.attr_shape ctx.K.node "shape" in
      let lo = Node.attr_float ctx.K.node "lo"
      and hi = Node.attr_float ctx.K.node "hi" in
      K.one (t (Tensor.uniform (K.rng ctx) shape ~lo ~hi)));
  K.register ~op_type:"RandomNormal" ~random:true (fun ctx ->
      let shape = Node.attr_shape ctx.K.node "shape" in
      let mean = Node.attr_float ctx.K.node "mean"
      and stddev = Node.attr_float ctx.K.node "stddev" in
      K.one (t (Tensor.normal (K.rng ctx) shape ~mean ~stddev)))
