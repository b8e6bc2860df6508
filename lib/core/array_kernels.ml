(* Array-manipulation kernels, including the sparse-access primitives the
   paper composes sharded embedding layers from (§4.2): Gather,
   DynamicPartition and DynamicStitch, each with a registered gradient. *)

open Octf_tensor
module K = Kernel

let t v = Value.Tensor v

let register () =
  K.register ~op_type:"Identity" (fun ctx -> K.one ctx.K.inputs.(0));
  K.register ~op_type:"StopGradient" (fun ctx -> K.one ctx.K.inputs.(0));
  K.register ~op_type:"Reshape" (fun ctx ->
      let shape = Node.attr_shape ctx.K.node "shape" in
      K.one (t (Tensor.reshape (K.input_tensor ctx 0) shape)));
  K.register ~op_type:"RangeLike" (fun ctx ->
      (* 1-D int tensor [0 .. numel x), e.g. original row positions fed to
         DynamicStitch in a sharded embedding lookup (§4.2). *)
      let n = Tensor.numel (K.input_tensor ctx 0) in
      K.one (t (Tensor.iota n)));
  K.register ~op_type:"RandomIndices" ~random:true (fun ctx ->
      (* n uniform ints in [0, range): the candidate sampler behind
         sampled softmax (§4.2, §6.4). *)
      let n = Node.attr_int ctx.K.node "n" in
      let range = Node.attr_int ctx.K.node "range" in
      let out = Array.init n (fun _ -> Rng.int (K.rng ctx) range) in
      K.one (t (Tensor.of_int_array [| n |] out)));
  K.register ~op_type:"ExpandDims" (fun ctx ->
      let x = K.input_tensor ctx 0 in
      let axis = Node.attr_int ctx.K.node "axis" in
      let s = Tensor.shape x in
      let r = Shape.rank s in
      let axis = if axis < 0 then axis + r + 1 else axis in
      if axis < 0 || axis > r then invalid_arg "ExpandDims: axis out of range";
      let out_shape =
        Array.concat
          [ Array.sub s 0 axis; [| 1 |]; Array.sub s axis (r - axis) ]
      in
      K.one (t (Tensor.reshape x out_shape)));
  K.register ~op_type:"Transpose" (fun ctx ->
      let perm =
        Option.map Array.of_list
          (Attr.find_ints ctx.K.node.Node.attrs "perm")
      in
      K.one (t (Tensor_ops.transpose ?perm (K.input_tensor ctx 0))));
  K.register ~op_type:"Concat" (fun ctx ->
      let axis = Node.attr_int ctx.K.node "axis" in
      K.one (t (Tensor_ops.concat (K.all_input_tensors ctx) ~axis)));
  K.register ~op_type:"Slice" (fun ctx ->
      let begin_ = Array.of_list (Node.attr_ints ctx.K.node "begin") in
      let size = Array.of_list (Node.attr_ints ctx.K.node "size") in
      K.one (t (Tensor_ops.slice (K.input_tensor ctx 0) ~begin_ ~size)));
  K.register ~op_type:"Pad" (fun ctx ->
      (* Flattened [before0; after0; before1; after1; ...]. *)
      let flat = Node.attr_ints ctx.K.node "paddings" in
      let rec pairs = function
        | [] -> []
        | a :: b :: rest -> (a, b) :: pairs rest
        | [ _ ] -> invalid_arg "Pad: odd paddings list"
      in
      let paddings = Array.of_list (pairs flat) in
      K.one (t (Tensor_ops.pad (K.input_tensor ctx 0) ~paddings)));
  K.register ~op_type:"Tile" (fun ctx ->
      let multiples = Array.of_list (Node.attr_ints ctx.K.node "multiples") in
      K.one (t (Tensor_ops.tile (K.input_tensor ctx 0) ~multiples)));
  K.register ~op_type:"OneHot" (fun ctx ->
      let depth = Node.attr_int ctx.K.node "depth" in
      K.one (t (Tensor_ops.one_hot (K.input_tensor ctx 0) ~depth)));
  K.register ~op_type:"Gather" (fun ctx ->
      K.one
        (t (Tensor_ops.gather (K.input_tensor ctx 0) (K.input_tensor ctx 1))));
  K.register ~op_type:"DynamicPartition" (fun ctx ->
      let num = Node.attr_int ctx.K.node "num_partitions" in
      let parts =
        Tensor_ops.dynamic_partition (K.input_tensor ctx 0)
          (K.input_tensor ctx 1) ~num
      in
      Array.of_list (List.map t parts));
  K.register ~op_type:"DynamicStitch" (fun ctx ->
      (* Inputs: n index tensors followed by n data tensors. *)
      let n = Node.attr_int ctx.K.node "n" in
      let all = K.all_input_tensors ctx in
      let rec take k l =
        if k = 0 then ([], l)
        else
          match l with
          | x :: rest ->
              let a, b = take (k - 1) rest in
              (x :: a, b)
          | [] -> invalid_arg "DynamicStitch: missing inputs"
      in
      let indices, data = take n all in
      K.one (t (Tensor_ops.dynamic_stitch indices data)));
  K.register ~op_type:"Pack" (fun ctx ->
      (* Stack n same-shape tensors along a new leading axis. *)
      K.one (t (Tensor_ops.stack (K.all_input_tensors ctx))));
  K.register ~op_type:"Unpack" (fun ctx ->
      (* Inverse of Pack: split the leading axis into single rows and
         drop it. *)
      let x = K.input_tensor ctx 0 in
      let num = Node.attr_int ctx.K.node "num" in
      let s = Tensor.shape x in
      if Shape.rank s = 0 || s.(0) <> num then
        invalid_arg "Unpack: leading dimension does not match num";
      Array.init num (fun i -> t (Tensor_ops.gather x (Tensor.scalar_i i))));
  K.register ~op_type:"Split" (fun ctx ->
      let x = K.input_tensor ctx 0 in
      let axis = Node.attr_int ctx.K.node "axis" in
      let num = Node.attr_int ctx.K.node "num" in
      Array.of_list (List.map t (Tensor_ops.split x ~axis ~num)));
  K.register ~op_type:"ScatterIntoShape" (fun ctx ->
      (* Dense accumulation of a sparse gradient: zeros of the given
         shape with update rows added at the given indices. *)
      let shape = Tensor.to_int_array (K.input_tensor ctx 0) in
      let indices = K.input_tensor ctx 1 in
      let updates = K.input_tensor ctx 2 in
      K.one (t (Tensor_ops.scatter_into_shape shape indices updates)));
  K.register ~op_type:"UniqueSegmentSum" (fun ctx ->
      (* Deduplicate a sparse gradient once: sorted distinct indices and
         each one's summed rows, as ScatterIntoShape would sum them. *)
      let unique, sums =
        Tensor_ops.unique_segment_sum (K.input_tensor ctx 0)
          (K.input_tensor ctx 1)
      in
      [| t unique; t sums |])
