open Octf_tensor

type shape = Known of int array | Unknown

exception Shape_error of string

let to_string = function
  | Unknown -> "?"
  | Known s -> Shape.to_string s

let fail n fmt =
  Printf.ksprintf
    (fun msg -> raise (Shape_error (Printf.sprintf "%s: %s" n.Node.name msg)))
    fmt

type engine = {
  graph : Graph.t;
  memo : (int, shape list) Hashtbl.t;
}

let engine graph = { graph; memo = Hashtbl.create 64 }

let conv_out ~same ~in_size ~filter ~stride =
  if same then (in_size + stride - 1) / stride
  else ((in_size - filter) / stride) + 1

let rec node_shapes eng (n : Node.t) =
  match Hashtbl.find_opt eng.memo n.Node.id with
  | Some s -> s
  | None ->
      (* Seed to terminate loop back edges (Merge <- NextIteration). *)
      Hashtbl.replace eng.memo n.Node.id
        (List.init (max 1 (Node.num_outputs n)) (fun _ -> Unknown));
      let result = compute eng n in
      Hashtbl.replace eng.memo n.Node.id result;
      result

and input_shape eng (n : Node.t) i =
  let (e : Node.endpoint) = n.Node.inputs.(i) in
  let producer = Graph.get eng.graph e.node_id in
  match List.nth_opt (node_shapes eng producer) e.index with
  | Some s -> s
  | None -> Unknown

and compute eng (n : Node.t) =
  let one s = [ s ] in
  let in_n i = input_shape eng n i in
  let all_inputs () =
    List.init (Array.length n.Node.inputs) (fun i -> in_n i)
  in
  let same_as_first () = one (in_n 0) in
  let broadcast_all () =
    let shapes = all_inputs () in
    let combined =
      List.fold_left
        (fun acc s ->
          match (acc, s) with
          | Unknown, _ | _, Unknown -> Unknown
          | Known a, Known b -> (
              match Shape.broadcast a b with
              | s -> Known s
              | exception Invalid_argument _ ->
                  fail n "cannot broadcast %s with %s" (Shape.to_string a)
                    (Shape.to_string b)))
        (Known [||]) shapes
    in
    one combined
  in
  match n.Node.op_type with
  | "Const" -> one (Known (Tensor.shape (Node.attr_tensor n "value")))
  | "Placeholder" | "Fill" | "RandomUniform" | "RandomNormal" ->
      one (Known (Node.attr_shape n "shape"))
  | "Variable" ->
      (* The handle itself has no tensor shape. *)
      one Unknown
  | "Read" | "Assign" | "AssignAdd" | "AssignSub" | "ScatterAdd"
  | "ScatterSub" | "ScatterUpdate" | "SparseApplyAdagrad" -> (
      (* All yield the variable's value; pull the shape from the
         producing Variable node's attribute. *)
      let (e : Node.endpoint) = n.Node.inputs.(0) in
      let producer = Graph.get eng.graph e.node_id in
      match
        (producer.Node.op_type, Attr.find_shape producer.Node.attrs "shape")
      with
      | "Variable", Some s when Shape.rank s > 0 || Shape.numel s = 1 ->
          one (Known s)
      | _ -> one Unknown)
  | "Add" | "Sub" | "Mul" | "Div" | "Pow" | "Mod" | "Maximum" | "Minimum" ->
      broadcast_all ()
  | "Equal" | "Less" | "Greater" | "GreaterEqual" -> broadcast_all ()
  | "Select" -> broadcast_all ()
  | "Neg" | "Abs" | "Sign" | "Exp" | "Log" | "Sqrt" | "Square"
  | "Reciprocal" | "Relu" | "Sigmoid" | "Tanh" | "Softmax" | "LogSoftmax"
  | "Identity" | "StopGradient" | "Cast" | "ZerosLike" | "OnesLike"
  | "Enter" | "Exit" | "NextIteration" | "LoopCond" | "Dequantize" ->
      same_as_first ()
  | "AddN" | "FusedElementwise" -> broadcast_all ()
  | "MatMul" -> (
      let ta = Node.attr_bool n "transpose_a"
      and tb = Node.attr_bool n "transpose_b" in
      match (in_n 0, in_n 1) with
      | Known a, Known b when Shape.rank a = 2 && Shape.rank b = 2 ->
          let m, k = if ta then (a.(1), a.(0)) else (a.(0), a.(1)) in
          let k2, p = if tb then (b.(1), b.(0)) else (b.(0), b.(1)) in
          if k <> k2 then
            fail n "MatMul inner dimensions %d vs %d (shapes %s x %s)" k k2
              (Shape.to_string a) (Shape.to_string b);
          one (Known [| m; p |])
      | Known a, _ when Shape.rank a <> 2 ->
          fail n "MatMul operand is not 2-D: %s" (Shape.to_string a)
      | _, Known b when Shape.rank b <> 2 ->
          fail n "MatMul operand is not 2-D: %s" (Shape.to_string b)
      | _ -> one Unknown)
  | "Reshape" -> (
      let target = Node.attr_shape n "shape" in
      let has_wildcard = Array.exists (fun d -> d = -1) target in
      match in_n 0 with
      | Known s when has_wildcard ->
          let known =
            Array.fold_left
              (fun acc d -> if d = -1 then acc else acc * d)
              1 target
          in
          if known = 0 || Shape.numel s mod known <> 0 then
            fail n "cannot reshape %s to %s" (Shape.to_string s)
              (Shape.to_string target);
          one
            (Known
               (Array.map
                  (fun d -> if d = -1 then Shape.numel s / known else d)
                  target))
      | Known s when Shape.numel s <> Shape.numel target ->
          fail n "cannot reshape %s to %s" (Shape.to_string s)
            (Shape.to_string target)
      | _ -> if has_wildcard then one Unknown else one (Known target))
  | "ExpandDims" -> (
      match in_n 0 with
      | Known s ->
          let axis = Node.attr_int n "axis" in
          let r = Shape.rank s in
          let axis = if axis < 0 then axis + r + 1 else axis in
          if axis < 0 || axis > r then fail n "ExpandDims axis out of range";
          one
            (Known
               (Array.concat
                  [ Array.sub s 0 axis; [| 1 |]; Array.sub s axis (r - axis) ]))
      | Unknown -> one Unknown)
  | "Transpose" -> (
      match in_n 0 with
      | Known s ->
          let perm =
            match Attr.find_ints n.Node.attrs "perm" with
            | Some p -> Array.of_list p
            | None -> Array.init (Shape.rank s) (fun i -> Shape.rank s - 1 - i)
          in
          one (Known (Array.map (fun i -> s.(i)) perm))
      | Unknown -> one Unknown)
  | "Concat" -> (
      let shapes = all_inputs () in
      if List.exists (fun s -> s = Unknown) shapes then one Unknown
      else
        let known =
          List.map (function Known s -> s | Unknown -> assert false) shapes
        in
        match Shape.concat known ~axis:(Node.attr_int n "axis") with
        | s -> one (Known s)
        | exception Invalid_argument msg -> fail n "%s" msg)
  | "Slice" -> (
      let size = Array.of_list (Node.attr_ints n "size") in
      match in_n 0 with
      | Known s ->
          let begin_ = Array.of_list (Node.attr_ints n "begin") in
          let out =
            Array.mapi
              (fun i d -> if d = -1 then s.(i) - begin_.(i) else d)
              size
          in
          Array.iteri
            (fun i d ->
              if begin_.(i) < 0 || begin_.(i) + d > s.(i) then
                fail n "slice out of bounds on axis %d" i)
            out;
          one (Known out)
      | Unknown ->
          if Array.exists (fun d -> d = -1) size then one Unknown
          else one (Known size))
  | "Pad" -> (
      match in_n 0 with
      | Known s ->
          let flat = Node.attr_ints n "paddings" in
          let rec pairs = function
            | [] -> []
            | a :: b :: rest -> (a, b) :: pairs rest
            | [ _ ] -> fail n "odd paddings"
          in
          let p = Array.of_list (pairs flat) in
          one
            (Known
               (Array.mapi (fun i d -> d + fst p.(i) + snd p.(i)) s))
      | Unknown -> one Unknown)
  | "Tile" -> (
      match in_n 0 with
      | Known s ->
          let m = Array.of_list (Node.attr_ints n "multiples") in
          one (Known (Array.mapi (fun i d -> d * m.(i)) s))
      | Unknown -> one Unknown)
  | "OneHot" -> (
      match in_n 0 with
      | Known s ->
          one (Known (Array.append s [| Node.attr_int n "depth" |]))
      | Unknown -> one Unknown)
  | "Gather" -> (
      match (in_n 0, in_n 1) with
      | Known params, Known idx when Shape.rank params >= 1 ->
          one
            (Known
               (Array.append idx (Array.sub params 1 (Shape.rank params - 1))))
      | _ -> one Unknown)
  | "UniqueSegmentSum" -> (
      (* How many indices are distinct is known only at run time. *)
      match (in_n 0, in_n 1) with
      | Known idx, Known v
        when Shape.rank v < Shape.rank idx
             || not (Shape.equal (Array.sub v 0 (Shape.rank idx)) idx) ->
          fail n "UniqueSegmentSum values %s do not start with indices %s"
            (Shape.to_string v) (Shape.to_string idx)
      | _ -> [ Unknown; Unknown ])
  | "Pack" -> (
      let shapes = all_inputs () in
      match shapes with
      | Known first :: rest ->
          List.iter
            (function
              | Known s when s <> first ->
                  fail n "Pack of mismatched shapes %s vs %s"
                    (Shape.to_string first) (Shape.to_string s)
              | _ -> ())
            rest;
          if List.for_all (fun s -> s <> Unknown) rest then
            one (Known (Array.append [| List.length shapes |] first))
          else one Unknown
      | _ -> one Unknown)
  | "Unpack" -> (
      let num = Node.attr_int n "num" in
      match in_n 0 with
      | Known s when Shape.rank s >= 1 ->
          if s.(0) <> num then
            fail n "Unpack num %d does not match leading dimension %d" num
              s.(0);
          List.init num (fun _ ->
              Known (Array.sub s 1 (Shape.rank s - 1)))
      | _ -> List.init num (fun _ -> Unknown))
  | "Split" -> (
      let num = Node.attr_int n "num" in
      match in_n 0 with
      | Known s ->
          let axis = Shape.normalize_axis s (Node.attr_int n "axis") in
          if s.(axis) mod num <> 0 then
            fail n "Split axis %d (size %d) not divisible by %d" axis s.(axis)
              num;
          let piece = Array.copy s in
          piece.(axis) <- s.(axis) / num;
          List.init num (fun _ -> Known piece)
      | Unknown -> List.init num (fun _ -> Unknown))
  | "ReduceSum" | "ReduceMean" | "ReduceMax" -> (
      match in_n 0 with
      | Known s ->
          let axes =
            Option.value ~default:[] (Attr.find_ints n.Node.attrs "axes")
          in
          let keep =
            Option.value ~default:false
              (Attr.find_bool n.Node.attrs "keep_dims")
          in
          one (Known (Shape.reduce ~keep_dims:keep s axes))
      | Unknown -> one Unknown)
  | "ArgMax" -> (
      match in_n 0 with
      | Known s ->
          one (Known (Shape.reduce s [ Node.attr_int n "axis" ]))
      | Unknown -> one Unknown)
  | "ShapeOf" -> (
      match in_n 0 with
      | Known s -> one (Known [| Shape.rank s |])
      | Unknown -> one Unknown)
  | "Conv2D" -> (
      match (in_n 0, in_n 1) with
      | Known i, Known f when Shape.rank i = 4 && Shape.rank f = 4 ->
          if i.(3) <> f.(2) then
            fail n "Conv2D channels %d vs filter in-channels %d" i.(3) f.(2);
          let same = Node.attr_string n "padding" = "SAME" in
          let sh, sw =
            match Node.attr_ints n "strides" with
            | [ a; b ] -> (a, b)
            | _ -> fail n "bad strides"
          in
          one
            (Known
               [|
                 i.(0);
                 conv_out ~same ~in_size:i.(1) ~filter:f.(0) ~stride:sh;
                 conv_out ~same ~in_size:i.(2) ~filter:f.(1) ~stride:sw;
                 f.(3);
               |])
      | _ -> one Unknown)
  | "MaxPool" | "AvgPool" -> (
      match in_n 0 with
      | Known i when Shape.rank i = 4 ->
          let same = Node.attr_string n "padding" = "SAME" in
          let kh, kw =
            match Node.attr_ints n "ksize" with
            | [ a; b ] -> (a, b)
            | _ -> fail n "bad ksize"
          in
          let sh, sw =
            match Node.attr_ints n "strides" with
            | [ a; b ] -> (a, b)
            | _ -> fail n "bad strides"
          in
          one
            (Known
               [|
                 i.(0);
                 conv_out ~same ~in_size:i.(1) ~filter:kh ~stride:sh;
                 conv_out ~same ~in_size:i.(2) ~filter:kw ~stride:sw;
                 i.(3);
               |])
      | _ -> one Unknown)
  | "SoftmaxCrossEntropy" -> (
      match in_n 0 with
      | Known s when Shape.rank s = 2 -> [ Known [| s.(0) |]; Known s ]
      | _ -> [ Unknown; Unknown ])
  | "Switch" ->
      let s = in_n 0 in
      [ s; s ]
  | "Merge" -> (
      match List.find_opt (fun s -> s <> Unknown) (all_inputs ()) with
      | Some s -> one s
      | None -> one Unknown)
  | "Quantize" | "QuantizeRange" -> [ in_n 0; Known [||]; Known [||] ]
  | "QuantizedMatMul" | "QuantizedMatMulQ" ->
      (* codes at inputs 0 and 3, range scalars between; lhs may be
         batched ([...; m; k]), rhs 2-D or batched alongside. *)
      let out =
        match (in_n 0, in_n 3) with
        | Known a, Known b when Shape.rank a >= 2 && Shape.rank b >= 2 ->
            let ra = Shape.rank a and rb = Shape.rank b in
            let k = a.(ra - 1) and kb = b.(rb - 2) in
            if k <> kb then
              fail n "QuantizedMatMul inner dimensions %d vs %d" k kb;
            let s = Array.copy a in
            s.(ra - 1) <- b.(rb - 1);
            Known s
        | _ -> Unknown
      in
      if n.Node.op_type = "QuantizedMatMul" then one out
      else [ out; Known [||]; Known [||] ]
  | "QuantizedConv2D" | "QuantizedConv2DQ" ->
      let out =
        match (in_n 0, in_n 3) with
        | Known i, Known f when Shape.rank i = 4 && Shape.rank f = 4 ->
            if i.(3) <> f.(2) then
              fail n "QuantizedConv2D channels %d vs filter in-channels %d"
                i.(3) f.(2);
            let same = Node.attr_string n "padding" = "SAME" in
            let sh, sw =
              match Node.attr_ints n "strides" with
              | [ a; b ] -> (a, b)
              | _ -> fail n "bad strides"
            in
            Known
              [|
                i.(0);
                conv_out ~same ~in_size:i.(1) ~filter:f.(0) ~stride:sh;
                conv_out ~same ~in_size:i.(2) ~filter:f.(1) ~stride:sw;
                f.(3);
              |]
        | _ -> Unknown
      in
      if n.Node.op_type = "QuantizedConv2D" then one out
      else [ out; Known [||]; Known [||] ]
  | "RangeLike" -> one Unknown
  | "RandomIndices" -> one (Known [| Node.attr_int n "n" |])
  | _ ->
      (* Unmodelled op: every output unknown. *)
      List.init (max 1 (Node.num_outputs n)) (fun _ -> Unknown)

let infer_node graph n = node_shapes (engine graph) n

let endpoint_shape eng (e : Node.endpoint) =
  let n = Graph.get eng.graph e.node_id in
  match List.nth_opt (node_shapes eng n) e.index with
  | Some s -> s
  | None -> Unknown

let output_shape eng (o : Builder.output) =
  endpoint_shape eng (Builder.endpoint_of_output o)

let validate graph =
  let eng = engine graph in
  Graph.iter graph (fun n -> ignore (node_shapes eng n))
