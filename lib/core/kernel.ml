type ctx = {
  node : Node.t;
  inputs : Value.t array;
  resources : Resource_manager.t;
  rendezvous : Rendezvous.t option;
  rng : Octf_tensor.Rng.t option;
  step_id : int;
  cancel : Cancel.t option;
  grants : (int * int) list;
  output_used : bool;
  var_snapshot : (string -> Octf_tensor.Tensor.t option) option;
}

type t = ctx -> Value.t array

exception Kernel_error of string * exn

(* Each entry instantiates the kernel for one plan node: most ignore
   the node, while per-node kernels (a compiled elementwise program)
   do their set-up once here rather than on every call. *)
let registry : (string * Device.device_type, Node.t -> t) Hashtbl.t =
  Hashtbl.create 256

(* Declared May_alias (input_idx, output_idx) pairs per op type.  A
   declaration is a capability, not a promise: the executor grants a
   pair only when its lifetime analysis proves the input buffer is
   exclusively owned (refcount 1, not fed/fetched/variable-backed), and
   the kernel may still decline (e.g. a broadcast changed the output
   size). *)
let alias_registry : (string, (int * int) list) Hashtbl.t = Hashtbl.create 64

(* Op types whose kernels draw from the step's per-node stream. *)
let random_registry : (string, unit) Hashtbl.t = Hashtbl.create 8

let register_per_node ~op_type ?(devices = [ Device.CPU; Device.GPU ])
    ?(aliases = []) ?(random = false) build =
  if aliases <> [] then Hashtbl.replace alias_registry op_type aliases;
  if random then Hashtbl.replace random_registry op_type ();
  List.iter (fun d -> Hashtbl.replace registry (op_type, d) build) devices

let register ~op_type ?devices ?aliases ?random kernel =
  register_per_node ~op_type ?devices ?aliases ?random (fun _ -> kernel)

let instantiate ~device (node : Node.t) =
  Option.map
    (fun build -> build node)
    (Hashtbl.find_opt registry (node.Node.op_type, device))

let aliases ~op_type =
  Option.value ~default:[] (Hashtbl.find_opt alias_registry op_type)

let random ~op_type = Hashtbl.mem random_registry op_type

let rng ctx =
  match ctx.rng with
  | Some r -> r
  | None ->
      invalid_arg
        (ctx.node.Node.op_type ^ " draws random numbers but was not registered \
                                 ~random")

let supported_devices ~op_type =
  List.filter
    (fun d -> Hashtbl.mem registry (op_type, d))
    [ Device.CPU; Device.GPU; Device.TPU ]

let is_registered ~op_type = supported_devices ~op_type <> []

let input_tensor ctx i = Value.tensor ctx.inputs.(i)

let input_var ctx i = Value.variable ctx.inputs.(i)

let input_queue ctx i = Value.queue ctx.inputs.(i)

let all_input_tensors ctx =
  Array.to_list (Array.map Value.tensor ctx.inputs)

let one v = [| v |]

let snapshot_read ctx (v : Resource.variable) =
  match ctx.var_snapshot with
  | Some lookup -> (
      match lookup v.Resource.var_name with
      | Some t -> t
      | None -> Resource.variable_read v)
  | None -> Resource.variable_read v

let granted_input ctx ~output =
  List.find_map
    (fun (i, o) ->
      if o = output then
        match ctx.inputs.(i) with
        | Value.Tensor t -> Some t
        | _ -> None
      else None)
    ctx.grants

let granted_buffer ctx ~output =
  match granted_input ctx ~output with
  | Some t when Octf_tensor.Dtype.is_floating (Octf_tensor.Tensor.dtype t) ->
      Some (Octf_tensor.Tensor.float_buffer t)
  | _ -> None
