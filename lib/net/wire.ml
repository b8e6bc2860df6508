(* Payload codec for the frame layer: {!Octf_tensor.Codec}, which also
   encodes checkpoints and record examples, plus the two things only
   the wire carries — dataflow values and graph endpoints. Malformed
   input raises [Decode_error] (the codec's). *)

include Octf_tensor.Codec

exception Encode_error of string

(* Values: only tensors and dead values cross processes. Resource
   handles are addresses into one process's heap; placement keeps
   resource edges device-local, so shipping one is a bug. *)

let put_value b = function
  | Octf.Value.Tensor t ->
      put_u8 b 0;
      put_tensor b t
  | Octf.Value.Dead -> put_u8 b 1
  | Octf.Value.Resource _ ->
      raise (Encode_error "resource values cannot cross process boundaries")

let get_value r =
  match get_u8 r with
  | 0 -> Octf.Value.Tensor (get_tensor r)
  | 1 -> Octf.Value.Dead
  | t -> fail "bad value tag %d" t

(* Graph endpoints ---------------------------------------------------- *)

let put_endpoint b (e : Octf.Node.endpoint) =
  put_u32 b e.Octf.Node.node_id;
  put_u32 b e.Octf.Node.index

let get_endpoint r =
  let node_id = get_u32 r in
  let index = get_u32 r in
  { Octf.Node.node_id; index }
