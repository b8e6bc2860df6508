(* Checkpointing kernels (§4.3): Save writes named tensors to a
   checkpoint file, Restore reads them back. The checkpoint path arrives
   as a string tensor (input 0) so clients can feed per-step filenames;
   the names are attributes. User-level policy (periodic saving,
   retention, fine-tuning) lives in Octf_train.Saver. *)

open Octf_tensor
module K = Kernel

let cpu = [ Device.CPU ]

let tensor_names node =
  match List.assoc_opt "tensor_names" node.Node.attrs with
  | Some (Attr.Strings l) -> l
  | _ -> invalid_arg (node.Node.name ^ ": missing tensor_names attribute")

let filename ctx =
  let t = K.input_tensor ctx 0 in
  Tensor.get_s t [||]

(* The node's [tensor_names] picked out of a named list, the body of
   both an example and a checkpoint; [missing name] is the error. *)
let select ctx entries ~missing =
  Array.of_list
    (List.map
       (fun name ->
         match List.assoc_opt name entries with
         | Some t -> Value.Tensor t
         | None -> failwith (missing name))
       (tensor_names ctx.K.node))

exception End_of_input of string
(* Raised by ReadRecord on an exhausted reader; input pipelines treat the
   resulting step error as end-of-stream (Figure 1's I/O subgraph). *)

let register () =
  K.register ~op_type:"RecordReader" ~devices:cpu (fun ctx ->
      (* Attrs: files (Strings). Loads every record up front — datasets
         here are synthetic and local; a streaming loader would slot in
         behind the same iterator resource. *)
      let node = ctx.K.node in
      let r =
        Resource_manager.find_or_create ctx.K.resources node.Node.name
          (fun () ->
            let files =
              match List.assoc_opt "files" node.Node.attrs with
              | Some (Attr.Strings fs) -> fs
              | _ -> invalid_arg (node.Node.name ^ ": missing files attr")
            in
            let records = List.concat_map Record_format.read_records files in
            Resource.Iterator
              (Resource.make_iterator ~name:node.Node.name ~records))
      in
      K.one (Value.Resource r));
  K.register ~op_type:"ReadRecord" ~devices:cpu (fun ctx ->
      let it = Value.iterator ctx.K.inputs.(0) in
      match Resource.iterator_next it with
      | Some record -> K.one (Value.Tensor (Tensor.scalar_s record))
      | None -> raise (End_of_input (Resource.name (Resource.Iterator it))));
  K.register ~op_type:"DecodeExample" ~devices:cpu (fun ctx ->
      let record = Tensor.get_s (K.input_tensor ctx 0) [||] in
      select ctx
        (Record_format.decode_example record)
        ~missing:(Printf.sprintf "DecodeExample: feature %S not in record"));
  K.register ~op_type:"Save" ~devices:cpu (fun ctx ->
      let names = tensor_names ctx.K.node in
      let data =
        List.mapi (fun i name -> (name, K.input_tensor ctx (i + 1))) names
      in
      Checkpoint_format.write (filename ctx) data;
      [||]);
  K.register ~op_type:"Restore" ~devices:cpu (fun ctx ->
      select ctx
        (Checkpoint_format.read_all (filename ctx))
        ~missing:(Printf.sprintf "Restore: tensor %S not in checkpoint"))
