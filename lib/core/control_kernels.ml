(* Dynamic control flow (§3.4) and cross-device communication (§3.3).

   Switch/Merge follow Arvind and Culler's dynamic dataflow: Switch
   demultiplexes its input onto one of two outputs, emitting the special
   dead value on the branch not taken; Merge forwards the first non-dead
   input (the executor invokes it as soon as one arrives, or when all
   inputs are dead). Enter/Exit/NextIteration are identities whose frame
   routing lives in the executor, following timely dataflow.

   Send publishes its input (including deadness) into the step rendezvous
   under the key agreed with its paired Recv, built once per plan node
   but for its step prefix. The executor completes the Recv when the
   value is locally available (see [Rendezvous.arm]). *)

open Octf_tensor
module K = Kernel

let identity name =
  K.register ~op_type:name (fun ctx -> K.one ctx.K.inputs.(0))

let register () =
  K.register ~op_type:"NoOp" (fun _ -> [||]);
  K.register ~op_type:"Switch" (fun ctx ->
      let data = ctx.K.inputs.(0) in
      let pred = K.input_tensor ctx 1 in
      let taken = Tensor.flat_get_f pred 0 <> 0.0 in
      if taken then [| Value.Dead; data |] else [| data; Value.Dead |]);
  K.register ~op_type:"Merge" (fun ctx ->
      let non_dead =
        Array.to_list ctx.K.inputs
        |> List.filter (fun v -> not (Value.is_dead v))
      in
      match non_dead with
      | v :: _ -> K.one v
      | [] -> K.one Value.Dead);
  identity "Enter";
  identity "Exit";
  identity "NextIteration";
  identity "LoopCond";
  K.register_per_node ~op_type:"Send" (fun node ->
      let suffix = Rendezvous.node_suffix node in
      fun ctx ->
        match ctx.K.rendezvous with
        | None -> failwith "Send: no rendezvous in a single-partition step"
        | Some r -> (
            let key = Rendezvous.key ~step_id:ctx.K.step_id suffix in
            match Fault_injector.send_hook ~key ~step_id:ctx.K.step_id with
            | `Drop ->
                (* A lost message: the paired Recv blocks until a deadline
                   or abort rescues it — exactly the failure mode §4.3's
                   checkpoint recovery is designed around. *)
                [||]
            | `Delay s ->
                Thread.delay s;
                Rendezvous.send r ~key ctx.K.inputs.(0);
                [||]
            | `Deliver ->
                Rendezvous.send r ~key ctx.K.inputs.(0);
                [||]));
  (* The executor completes a Recv by arming it in the step's
     rendezvous; it runs this kernel only in a step without one. *)
  K.register ~op_type:"Recv" (fun _ ->
      failwith "Recv: no rendezvous in a single-partition step")
