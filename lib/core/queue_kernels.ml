(* Queue kernels (§3.1). Like Variable, a queue op emits a reference
   handle; Enqueue/Dequeue consume it and block for backpressure and
   synchronization — the coordination primitive behind input pipelines
   (Figure 1) and synchronous replication (§4.4). Queue kernels are
   CPU-only, as in the paper. *)

open Octf_tensor
module K = Kernel

let cpu = [ Device.CPU ]

let queue_resource ctx kind =
  let node = ctx.K.node in
  Resource_manager.find_or_create ctx.K.resources node.Node.name (fun () ->
      Resource.Queue
        (Queue_impl.create ~kind ~name:node.Node.name
           ~capacity:(Node.attr_int node "capacity")
           ~num_components:(Node.attr_int node "num_components")
           ()))

let register () =
  K.register ~op_type:"FIFOQueue" ~devices:cpu (fun ctx ->
      K.one (Value.Resource (queue_resource ctx Queue_impl.Fifo)));
  K.register ~op_type:"RandomShuffleQueue" ~devices:cpu (fun ctx ->
      let seed =
        Option.value ~default:0 (Attr.find_int ctx.K.node.Node.attrs "seed")
      in
      K.one
        (Value.Resource
           (queue_resource ctx (Queue_impl.Shuffle (Rng.create seed)))));
  K.register ~op_type:"Enqueue" ~devices:cpu (fun ctx ->
      let q = K.input_queue ctx 0 in
      let components =
        Array.init
          (Array.length ctx.K.inputs - 1)
          (fun i -> K.input_tensor ctx (i + 1))
      in
      Queue_impl.enqueue ?cancel:ctx.K.cancel q components;
      [||]);
  K.register ~op_type:"EnqueueMany" ~devices:cpu (fun ctx ->
      (* Components are batched along axis 0; enqueue one element per
         row. *)
      let q = K.input_queue ctx 0 in
      let batched =
        Array.init
          (Array.length ctx.K.inputs - 1)
          (fun i -> K.input_tensor ctx (i + 1))
      in
      let n = (Tensor.shape batched.(0)).(0) in
      for row = 0 to n - 1 do
        let element =
          Array.map
            (fun t -> Tensor_ops.gather t (Tensor.scalar_i row))
            batched
        in
        Queue_impl.enqueue ?cancel:ctx.K.cancel q element
      done;
      [||]);
  K.register ~op_type:"Dequeue" ~devices:cpu (fun ctx ->
      let q = K.input_queue ctx 0 in
      Array.map (fun t -> Value.Tensor t) (Queue_impl.dequeue ?cancel:ctx.K.cancel q));
  K.register ~op_type:"DequeueMany" ~devices:cpu (fun ctx ->
      let q = K.input_queue ctx 0 in
      let n = Node.attr_int ctx.K.node "n" in
      Array.map
        (fun t -> Value.Tensor t)
        (Queue_impl.dequeue_many ?cancel:ctx.K.cancel q n));
  K.register ~op_type:"QueueClose" ~devices:cpu (fun ctx ->
      Queue_impl.close (K.input_queue ctx 0);
      [||]);
  K.register ~op_type:"QueueSize" ~devices:cpu (fun ctx ->
      K.one (Value.Tensor (Tensor.scalar_i (Queue_impl.size (K.input_queue ctx 0)))))
