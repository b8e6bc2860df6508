(* Kernels that exist to serve the gradient graphs built by
   Octf.Gradients (§4.1): shape-restoring counterparts of reductions and
   array ops whose inverse needs the forward operand's runtime shape. *)

open Octf_tensor
module K = Kernel

let t v = Value.Tensor v

(* The gradient of a reduction is dy (times 1/n for a mean) broadcast
   back over the reduced axes. *)
let reduce_grad ~mean ctx =
  let x = K.input_tensor ctx 0 and dy = K.input_tensor ctx 1 in
  let axes =
    Option.value ~default:[] (Attr.find_ints ctx.K.node.Node.attrs "axes")
  in
  let xs = Tensor.shape x in
  let dy = Tensor.reshape dy (Shape.reduce ~keep_dims:true xs axes) in
  let dy =
    if not mean then dy
    else
      let n = Tensor.numel x / max 1 (Tensor.numel dy) in
      Tensor_ops.mul dy
        (Tensor.full (Tensor.dtype dy) [||] (1.0 /. float_of_int n))
  in
  K.one (t (Tensor_ops.broadcast_to dy xs))

let register () =
  K.register ~op_type:"ReshapeLike" (fun ctx ->
      let x = K.input_tensor ctx 0 and like = K.input_tensor ctx 1 in
      K.one (t (Tensor.reshape x (Tensor.shape like))));
  K.register ~op_type:"ReduceSumGrad" (reduce_grad ~mean:false);
  K.register ~op_type:"ReduceMeanGrad" (reduce_grad ~mean:true);
  K.register ~op_type:"ConcatGrad" (fun ctx ->
      (* Inputs: dy, x_0 .. x_{n-1}; outputs: one slice of dy per x_i. *)
      let axis = Node.attr_int ctx.K.node "axis" in
      let n = Node.attr_int ctx.K.node "n" in
      let dy = K.input_tensor ctx 0 in
      let axis = Shape.normalize_axis (Tensor.shape dy) axis in
      let offset = ref 0 in
      Array.init n (fun i ->
          let xi = K.input_tensor ctx (i + 1) in
          let s = Tensor.shape xi in
          let begin_ = Array.make (Shape.rank s) 0 in
          begin_.(axis) <- !offset;
          offset := !offset + s.(axis);
          t (Tensor_ops.slice dy ~begin_ ~size:s)));
  K.register ~op_type:"SliceGrad" (fun ctx ->
      (* Gradient of Slice: dy padded back into x's shape. *)
      let x = K.input_tensor ctx 0 and dy = K.input_tensor ctx 1 in
      let begin_ = Array.of_list (Node.attr_ints ctx.K.node "begin") in
      let xs = Tensor.shape x and ds = Tensor.shape dy in
      let paddings =
        Array.init (Shape.rank xs) (fun i ->
            (begin_.(i), xs.(i) - begin_.(i) - ds.(i)))
      in
      K.one (t (Tensor_ops.pad dy ~paddings)));
  K.register ~op_type:"PadGrad" (fun ctx ->
      (* Gradient of Pad: the un-padded window of dy. *)
      let x = K.input_tensor ctx 0 and dy = K.input_tensor ctx 1 in
      let flat = Node.attr_ints ctx.K.node "paddings" in
      let rec firsts = function
        | [] -> []
        | a :: _ :: rest -> a :: firsts rest
        | [ _ ] -> invalid_arg "PadGrad: odd paddings"
      in
      let begin_ = Array.of_list (firsts flat) in
      K.one (t (Tensor_ops.slice dy ~begin_ ~size:(Tensor.shape x))));
  K.register ~op_type:"TileGrad" (fun ctx ->
      (* Gradient of Tile: view each axis of dy as (replica, position)
         and sum the replicas out. *)
      let x = K.input_tensor ctx 0 and dy = K.input_tensor ctx 1 in
      let xs = Tensor.shape x and ds = Tensor.shape dy in
      let r = Shape.rank xs in
      let pairs =
        Array.init (2 * r) (fun i ->
            let d = i / 2 in
            if i mod 2 = 0 then ds.(d) / max 1 xs.(d) else xs.(d))
      in
      let summed =
        Tensor_ops.reduce_sum
          ~axes:(List.init r (fun d -> 2 * d))
          (Tensor.reshape dy pairs)
      in
      K.one (t (Tensor.reshape summed xs)));
  K.register ~op_type:"AvgPoolGrad" (fun ctx ->
      (* Distribute each output gradient equally over its window. *)
      let input = Nn_kernels.pool_input ctx "AvgPoolGrad" 0
      and dy = Nn_kernels.pool_input ctx "AvgPoolGrad" 1 in
      let kh, kw =
        match Node.attr_ints ctx.K.node "ksize" with
        | [ a; b ] -> (a, b)
        | _ -> invalid_arg "AvgPoolGrad: ksize"
      in
      let sh, sw =
        match Node.attr_ints ctx.K.node "strides" with
        | [ a; b ] -> (a, b)
        | _ -> invalid_arg "AvgPoolGrad: strides"
      in
      let same = Node.attr_string ctx.K.node "padding" = "SAME" in
      let is = Tensor.shape input and os = Tensor.shape dy in
      let batch = is.(0) and ih = is.(1) and iw = is.(2) and c = is.(3) in
      let oh = os.(1) and ow = os.(2) in
      let pad total in_size filter stride =
        if same then max 0 (((total - 1) * stride) + filter - in_size) / 2
        else 0
      in
      let ph = pad oh ih kh sh and pw = pad ow iw kw sw in
      let out = Tensor.zeros (Tensor.dtype input) is in
      for b = 0 to batch - 1 do
        for y = 0 to oh - 1 do
          for x = 0 to ow - 1 do
            (* Count live window cells once per (y, x). *)
            let count = ref 0 in
            for ky = 0 to kh - 1 do
              let sy = (y * sh) + ky - ph in
              if sy >= 0 && sy < ih then
                for kx = 0 to kw - 1 do
                  let sx = (x * sw) + kx - pw in
                  if sx >= 0 && sx < iw then incr count
                done
            done;
            if !count > 0 then
              for ch = 0 to c - 1 do
                let g =
                  Tensor.flat_get_f dy ((((b * oh) + y) * ow + x) * c + ch)
                  /. float_of_int !count
                in
                for ky = 0 to kh - 1 do
                  let sy = (y * sh) + ky - ph in
                  if sy >= 0 && sy < ih then
                    for kx = 0 to kw - 1 do
                      let sx = (x * sw) + kx - pw in
                      if sx >= 0 && sx < iw then begin
                        let o = (((b * ih) + sy) * iw + sx) * c + ch in
                        Tensor.flat_set_f out o (Tensor.flat_get_f out o +. g)
                      end
                    done
                done
              done
          done
        done
      done;
      K.one (t out));
  K.register ~op_type:"DynamicPartitionGrad" (fun ctx ->
      (* Inputs: partitions, dy_0 .. dy_{num-1}. Row i of the gradient is
         the next unread row of dy_{partitions[i]}: a stitch by each
         partition's original row positions. *)
      let num = Node.attr_int ctx.K.node "num_partitions" in
      let partitions = K.input_tensor ctx 0 in
      let rows = Array.make num [] in
      for i = Tensor.numel partitions - 1 downto 0 do
        let p = Tensor.flat_get_i partitions i in
        rows.(p) <- i :: rows.(p)
      done;
      let positions =
        Array.map
          (fun r -> Tensor.of_int_array [| List.length r |] (Array.of_list r))
          rows
      in
      let dys = List.init num (fun i -> K.input_tensor ctx (i + 1)) in
      K.one (t (Tensor_ops.dynamic_stitch (Array.to_list positions) dys)))
