type endpoint = { node_id : int; index : int }

type t = {
  id : int;
  name : string;
  op_type : string;
  inputs : endpoint array;
  control_inputs : int list;
  attrs : (string * Attr.t) list;
  device_spec : Device.spec;
  mutable assigned_device : Device.t option;
}

let endpoint node_id index = { node_id; index }

let attr_bool n = Attr.get_bool n.attrs

let attr_int n = Attr.get_int n.attrs

let attr_float n = Attr.get_float n.attrs

let attr_string n = Attr.get_string n.attrs

let attr_dtype n = Attr.get_dtype n.attrs

let attr_shape n = Attr.get_shape n.attrs

let attr_tensor n = Attr.get_tensor n.attrs

let attr_ints n = Attr.get_ints n.attrs

let stateful_ops =
  [
    "Variable"; "Assign"; "AssignAdd"; "AssignSub"; "ScatterAdd"; "ScatterSub";
    "ScatterUpdate"; "SparseApplyAdagrad"; "FIFOQueue"; "RandomShuffleQueue";
    "Enqueue"; "EnqueueMany"; "Dequeue"; "DequeueMany"; "QueueClose";
    "QueueSize";
    "Save"; "Restore"; "RandomUniform"; "RandomNormal"; "RandomIndices";
    "RecordReader"; "ReadRecord"; "ReadFile"; "TensorArray";
    "TensorArrayWrite"; "TensorArrayRead"; "TensorArraySize";
    "TensorArrayStack";
    "WriteFile"; "CountUp";
  ]

let is_stateful n = List.mem n.op_type stateful_ops

let num_outputs n =
  match n.op_type with
  | "NoOp" | "Save" | "Enqueue" | "EnqueueMany" | "QueueClose" | "Send" -> 0
  | "Switch" -> 2
  | "Quantize" | "QuantizeRange" | "QuantizedMatMulQ" | "QuantizedConv2DQ" -> 3
  | "SoftmaxCrossEntropy" | "UniqueSegmentSum" -> 2
  | "DynamicPartition" -> attr_int n "num_partitions"
  | "ConcatGrad" -> attr_int n "n"
  | "Unpack" -> attr_int n "num"
  | "Split" -> attr_int n "num"
  | "Dequeue" | "DequeueMany" -> attr_int n "num_components"
  | "DecodeExample" | "Restore" -> (
      match List.assoc_opt "tensor_names" n.attrs with
      | Some (Attr.Strings l) -> List.length l
      | _ -> 1)
  | _ -> 1

let pp fmt n =
  Format.fprintf fmt "%s = %s(%s)%s" n.name n.op_type
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun (e : endpoint) -> Printf.sprintf "%d:%d" e.node_id e.index)
             n.inputs)))
    (match n.assigned_device with
    | None -> ""
    | Some d -> " @" ^ Device.to_string d)
