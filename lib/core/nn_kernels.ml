(* Neural-network kernels: activations, convolution, pooling, softmax.
   The fused SoftmaxCrossEntropy kernel mirrors the hand-implemented
   fused kernels the paper describes for performance-critical operations
   (§5): output 0 is the per-example loss, output 1 the cached backprop
   (softmax - labels) consumed by the gradient graph. *)

open Octf_tensor
module K = Kernel
module SF = Step_failure

let t v = Value.Tensor v

let padding_of_node node =
  match Node.attr_string node "padding" with
  | "SAME" -> Tensor_ops.Same
  | "VALID" -> Tensor_ops.Valid
  | s -> invalid_arg ("padding attribute must be SAME or VALID, got " ^ s)

let pair_of_ints name = function
  | [ a; b ] -> (a, b)
  | _ -> invalid_arg (name ^ ": expected a list of two ints")

let strides_of node = pair_of_ints "strides" (Node.attr_ints node "strides")

let ksize_of node = pair_of_ints "ksize" (Node.attr_ints node "ksize")

(* Pooling kernels (and [Grad_kernels]' AvgPoolGrad) read their
   operands' buffers directly. An operand of a dtype the op does not
   take fails as a malformed graph naming the op and the dtype;
   [MaxPool] also takes uint8 codes (see {!Tensor_ops.max_pool}). *)
let pool_input ?(codes = false) ctx op i =
  let x = K.input_tensor ctx i in
  match Tensor.dtype x with
  | Dtype.F32 | Dtype.F64 -> x
  | Dtype.U8 when codes -> x
  | d ->
      raise
        (SF.error
           (SF.Invalid_graph
              (Printf.sprintf "%s: input %d must be %s (got %s)" op i
                 (if codes then "a float tensor or uint8 codes"
                  else "a float tensor")
                 (Dtype.to_string d))))

let unary name f =
  K.register ~op_type:name (fun ctx -> K.one (t (f (K.input_tensor ctx 0))))

(* Elementwise activations accept an in-place grant from the memory
   planner (see Math_kernels); softmax variants reduce over rows and
   keep their own buffers. *)
let unary_inplace name f =
  K.register ~op_type:name ~aliases:[ (0, 0) ] (fun ctx ->
      K.one
        (t (f ?out:(K.granted_buffer ctx ~output:0) (K.input_tensor ctx 0))))

let register () =
  unary_inplace "Relu" Tensor_ops.relu;
  unary_inplace "Sigmoid" Tensor_ops.sigmoid;
  unary_inplace "Tanh" Tensor_ops.tanh;
  unary "Softmax" Tensor_ops.softmax;
  unary "LogSoftmax" Tensor_ops.log_softmax;
  K.register ~op_type:"ReluGrad" ~aliases:[ (0, 0); (1, 0) ] (fun ctx ->
      K.one
        (t
           (Tensor_ops.relu_grad
              ?out:(K.granted_buffer ctx ~output:0)
              (K.input_tensor ctx 0) (K.input_tensor ctx 1))));
  K.register ~op_type:"SoftmaxCrossEntropy" (fun ctx ->
      let logits = K.input_tensor ctx 0 and labels = K.input_tensor ctx 1 in
      let loss = Tensor_ops.softmax_cross_entropy ~logits ~labels in
      let backprop = Tensor_ops.softmax_cross_entropy_grad ~logits ~labels in
      [| t loss; t backprop |]);
  K.register ~op_type:"Conv2D" (fun ctx ->
      let strides = strides_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      K.one
        (t
           (Tensor_ops.conv2d (K.input_tensor ctx 0) (K.input_tensor ctx 1)
              ~strides ~padding)));
  K.register ~op_type:"Conv2DGradInput" (fun ctx ->
      (* Inputs: input (for its shape), filter, dy. *)
      let strides = strides_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      let input_shape = Tensor.shape (K.input_tensor ctx 0) in
      K.one
        (t
           (Tensor_ops.conv2d_grad_input ~input_shape (K.input_tensor ctx 1)
              (K.input_tensor ctx 2) ~strides ~padding)));
  K.register ~op_type:"Conv2DGradFilter" (fun ctx ->
      (* Inputs: input, filter (for its shape), dy. *)
      let strides = strides_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      let filter_shape = Tensor.shape (K.input_tensor ctx 1) in
      K.one
        (t
           (Tensor_ops.conv2d_grad_filter ~filter_shape (K.input_tensor ctx 0)
              (K.input_tensor ctx 2) ~strides ~padding)));
  K.register ~op_type:"MaxPool" (fun ctx ->
      let strides = strides_of ctx.K.node in
      let ksize = ksize_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      K.one
        (t
           (Tensor_ops.max_pool
              (pool_input ~codes:true ctx "MaxPool" 0)
              ~ksize ~strides ~padding)));
  K.register ~op_type:"MaxPoolGrad" (fun ctx ->
      let strides = strides_of ctx.K.node in
      let ksize = ksize_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      K.one
        (t
           (Tensor_ops.max_pool_grad
              (pool_input ctx "MaxPoolGrad" 0)
              (pool_input ctx "MaxPoolGrad" 1)
              ~ksize ~strides ~padding)));
  K.register ~op_type:"AvgPool" (fun ctx ->
      let strides = strides_of ctx.K.node in
      let ksize = ksize_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      K.one
        (t
           (Tensor_ops.avg_pool (pool_input ctx "AvgPool" 0) ~ksize ~strides
              ~padding)))
