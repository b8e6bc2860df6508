(* Stateful kernels for variables (§3.1): a Variable owns a mutable
   buffer and emits a reference handle; Read/Assign*/Scatter* consume the
   handle. Updates replace the stored tensor (copy-on-write), so tensors
   previously returned by Read remain valid snapshots, while AssignAdd on
   a parameter-server task gives the associative += write the
   parameter-server architecture is built around (§2.2, §4.1). *)

open Octf_tensor
module K = Kernel

let t v = Value.Tensor v

let register () =
  K.register ~op_type:"Variable" (fun ctx ->
      let node = ctx.K.node in
      let r =
        Resource_manager.find_or_create ctx.K.resources node.Node.name
          (fun () ->
            Resource.Variable
              (Resource.make_variable ~name:node.Node.name
                 ~dtype:(Node.attr_dtype node "dtype")
                 ~shape:(Node.attr_shape node "shape")))
      in
      K.one (Value.Resource r));
  (* Reads go through the step's admission snapshot when the pipelined
     engine installed one, so every Read in one in-flight step observes
     the same variable versions; updates below always hit the live
     variable, landing in completion order (§4.4 async consistency). *)
  K.register ~op_type:"Read" (fun ctx ->
      K.one (t (K.snapshot_read ctx (K.input_var ctx 0))));
  K.register ~op_type:"Assign" (fun ctx ->
      let var = K.input_var ctx 0 and v = K.input_tensor ctx 1 in
      Resource.variable_assign var v;
      K.one (t v));
  (* A granted update buffer lets the += write land in the incoming
     delta's storage (e.g. the scaled gradient), which then becomes the
     variable's new backing — the old backing stays a valid snapshot for
     earlier Reads, preserving copy-on-write semantics. The variable's
     own buffer (input 0 is a resource handle) is never aliased. *)
  K.register ~op_type:"AssignAdd" ~aliases:[ (1, 0) ] (fun ctx ->
      let var = K.input_var ctx 0 and v = K.input_tensor ctx 1 in
      let out = K.granted_buffer ctx ~output:0 in
      K.one (t (Resource.variable_update var (fun old -> Tensor_ops.add ?out old v))));
  K.register ~op_type:"AssignSub" ~aliases:[ (1, 0) ] (fun ctx ->
      let var = K.input_var ctx 0 and v = K.input_tensor ctx 1 in
      let out = K.granted_buffer ctx ~output:0 in
      K.one (t (Resource.variable_update var (fun old -> Tensor_ops.sub ?out old v))));
  K.register ~op_type:"ScatterAdd" (fun ctx ->
      let var = K.input_var ctx 0 in
      let indices = K.input_tensor ctx 1 and updates = K.input_tensor ctx 2 in
      K.one
        (t
           (Resource.variable_update var (fun old ->
                Tensor_ops.scatter_add old indices updates))));
  K.register ~op_type:"ScatterSub" (fun ctx ->
      let var = K.input_var ctx 0 in
      let indices = K.input_tensor ctx 1 and updates = K.input_tensor ctx 2 in
      K.one
        (t
           (Resource.variable_update var (fun old ->
                Tensor_ops.scatter_sub old indices updates))));
  (* TF's SparseApplyAdagrad on deduplicated rows: the accumulator and
     then the variable, each replaced by a fresh copy. The variable's
     lock nests inside the accumulator's; no other kernel takes two. *)
  K.register ~op_type:"SparseApplyAdagrad" (fun ctx ->
      let var = K.input_var ctx 0 and accum = K.input_var ctx 1 in
      if var == accum then
        invalid_arg "SparseApplyAdagrad: variable and accumulator are one";
      let lr = K.input_tensor ctx 2 in
      let indices = K.input_tensor ctx 3 and values = K.input_tensor ctx 4 in
      let epsilon = Node.attr_float ctx.K.node "epsilon" in
      let updated = ref None in
      ignore
        (Resource.variable_update accum (fun old_accum ->
             let accum' = ref old_accum in
             let var' =
               Resource.variable_update var (fun old_var ->
                   let v, a =
                     Tensor_ops.sparse_apply_adagrad ~var:old_var
                       ~accum:old_accum ~lr ~epsilon indices values
                   in
                   accum' := a;
                   v)
             in
             updated := Some var';
             !accum'));
      K.one (t (Option.get !updated)));
  K.register ~op_type:"ScatterUpdate" (fun ctx ->
      let var = K.input_var ctx 0 in
      let indices = K.input_tensor ctx 1 and updates = K.input_tensor ctx 2 in
      K.one
        (t
           (Resource.variable_update var (fun old ->
                let fresh = Tensor.copy old in
                let rs = Tensor.numel fresh / (Tensor.shape fresh).(0) in
                for i = 0 to Tensor.numel indices - 1 do
                  Tensor.blit_strided ~src:updates ~src_off:(i * rs)
                    ~src_strides:[| 1 |] ~dst:fresh
                    ~dst_off:(Tensor.flat_get_i indices i * rs)
                    ~dst_strides:[| 1 |] [| rs |]
                done;
                fresh))));
  K.register ~op_type:"TensorArray" (fun ctx ->
      let node = ctx.K.node in
      let r =
        Resource_manager.find_or_create ctx.K.resources node.Node.name
          (fun () ->
            Resource.Tensor_array
              (Resource.make_tensor_array ~name:node.Node.name))
      in
      K.one (Value.Resource r));
  K.register ~op_type:"TensorArrayWrite" (fun ctx ->
      (* Inputs: handle, index, value. Returns the value as a flow token
         so downstream reads can order after the write. *)
      let ta = Value.tensor_array ctx.K.inputs.(0) in
      let index = Tensor.flat_get_i (K.input_tensor ctx 1) 0 in
      let v = K.input_tensor ctx 2 in
      Resource.tensor_array_write ta index v;
      K.one (t v));
  K.register ~op_type:"TensorArrayRead" (fun ctx ->
      let ta = Value.tensor_array ctx.K.inputs.(0) in
      let index = Tensor.flat_get_i (K.input_tensor ctx 1) 0 in
      K.one (t (Resource.tensor_array_read ta index)));
  K.register ~op_type:"TensorArraySize" (fun ctx ->
      let ta = Value.tensor_array ctx.K.inputs.(0) in
      K.one (t (Tensor.scalar_i (Resource.tensor_array_size ta))));
  K.register ~op_type:"TensorArrayStack" (fun ctx ->
      (* Pack all written elements along a new leading axis. *)
      let ta = Value.tensor_array ctx.K.inputs.(0) in
      match Resource.tensor_array_stack ta with
      | [] -> invalid_arg "TensorArrayStack: empty tensor array"
      | items -> K.one (t (Tensor_ops.stack items)));
  K.register ~op_type:"CountUp" (fun ctx ->
      (* Atomic fetch-and-increment of a scalar variable; returns the
         pre-increment value. Used for global steps and sync barriers. *)
      let var = K.input_var ctx 0 in
      let old = ref (Tensor.scalar_f 0.0) in
      let _ =
        Resource.variable_update var (fun v ->
            old := v;
            Tensor_ops.add v (Tensor.ones (Tensor.dtype v) (Tensor.shape v)))
      in
      K.one (t !old))
