open Octf_tensor

let impure_ops =
  [
    "Placeholder"; "Send"; "Recv"; "Switch"; "Merge"; "Enter"; "Exit";
    "NextIteration"; "LoopCond"; "NoOp";
  ]

let is_pure (n : Node.t) =
  (not (Node.is_stateful n)) && not (List.mem n.Node.op_type impure_ops)

(* Rewire every consumer of [old_id]'s outputs to the same-index output of
   [new_id], and every control edge to [new_id]. *)
let redirect graph ~old_id ~new_id =
  Graph.iter graph (fun n ->
      Array.iteri
        (fun slot (e : Node.endpoint) ->
          if e.node_id = old_id then
            Graph.set_input graph ~node_id:n.Node.id ~slot
              (Node.endpoint new_id e.index))
        n.Node.inputs);
  (* Control edges: rebuild via set_input is data-only; rewrite the node
     record directly. *)
  Graph.iter graph (fun n ->
      if List.mem old_id n.Node.control_inputs then begin
        let fresh =
          List.sort_uniq compare
            (List.map
               (fun c -> if c = old_id then new_id else c)
               n.Node.control_inputs)
        in
        (* Re-adding is not possible; mutate through a replacement record
           using set_input's mechanism is data-only, so we reach into the
           graph via a dedicated helper below. *)
        Graph.replace_control_inputs graph ~node_id:n.Node.id fresh
      end)

(* Multi-output variant of [redirect] for constant folding: consumer
   endpoint (old_id, k) moves to output 0 of the k-th replacement node.
   Control edges (which carry no slot) all move to the first one. *)
let redirect_outputs graph ~old_id ~new_ids =
  Graph.iter graph (fun n ->
      Array.iteri
        (fun slot (e : Node.endpoint) ->
          if e.node_id = old_id then
            Graph.set_input graph ~node_id:n.Node.id ~slot
              (Node.endpoint new_ids.(e.index) 0))
        n.Node.inputs);
  Graph.iter graph (fun n ->
      if List.mem old_id n.Node.control_inputs then
        Graph.replace_control_inputs graph ~node_id:n.Node.id
          (List.sort_uniq compare
             (List.map
                (fun c -> if c = old_id then new_ids.(0) else c)
                n.Node.control_inputs)))

let constant_fold graph ~nodes ~fed =
  (* Folding executes kernels; without this, Kernel.instantiate returns None
     for everything when the optimizer runs before the first executor
     compile of the process and folding silently does nothing. *)
  Builtin_kernels.ensure ();
  let folded = ref 0 in
  let order = Graph.topological_order graph in
  let in_set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) nodes;
  List.iter
    (fun (n : Node.t) ->
      (* Re-read the node: earlier folds rewired consumer endpoints to
         the minted Consts, and the topological snapshot predates that —
         without the re-read a fold never cascades downstream within
         one sweep. *)
      let n = Graph.get graph n.Node.id in
      if
        Hashtbl.mem in_set n.Node.id
        && (not (Hashtbl.mem fed n.Node.id))
        && is_pure n
        && n.Node.op_type <> "Const"
        && Node.num_outputs n >= 1
        && n.Node.control_inputs = []
        && Array.length n.Node.inputs > 0
        && Array.for_all
             (fun (e : Node.endpoint) ->
               (Graph.get graph e.node_id).Node.op_type = "Const")
             n.Node.inputs
      then begin
        (* A node whose per-node set-up fails (say, a malformed "expr"
           on an imported FusedElementwise) is left unfolded; running
           it reports the failure, as the executor does. *)
        match Kernel.instantiate ~device:Device.CPU n with
        | None | (exception _) -> ()
        | Some kernel -> (
            let inputs =
              Array.map
                (fun (e : Node.endpoint) ->
                  Value.Tensor
                    (Node.attr_tensor (Graph.get graph e.node_id) "value"))
                n.Node.inputs
            in
            let ctx =
              {
                Kernel.node = n;
                inputs;
                resources = Resource_manager.create ();
                rendezvous = None;
                rng = None;
                step_id = 0;
                cancel = None;
                grants = [];
                var_snapshot = None;
              }
            in
            (* Multi-output pure ops (Split, Unpack, ...) fold too: one
               Const is minted per output slot so downstream consumers
               of any slot keep folding. *)
            match kernel ctx with
            | outputs
              when Array.length outputs >= 1
                   && Array.for_all
                        (function Value.Tensor _ -> true | _ -> false)
                        outputs ->
                let new_ids =
                  Array.mapi
                    (fun k v ->
                      let result =
                        match v with Value.Tensor t -> t | _ -> assert false
                      in
                      let name =
                        if Array.length outputs = 1 then
                          n.Node.name ^ "/folded"
                        else Printf.sprintf "%s/folded:%d" n.Node.name k
                      in
                      let const =
                        Graph.add_node graph ~name
                          ~attrs:[ ("value", Attr.Tensor result) ]
                          ~device:n.Node.device_spec ~op_type:"Const" ()
                      in
                      const.Node.id)
                    outputs
                in
                redirect_outputs graph ~old_id:n.Node.id ~new_ids;
                incr folded
            | _ | (exception _) -> ())
      end)
    order;
  !folded

(* Structural key for CSE. Tensor attributes hash their full contents. *)
let cse_key (n : Node.t) =
  let attr_part =
    String.concat ";"
      (List.map
         (fun (k, a) ->
           match a with
           | Attr.Tensor t ->
               Printf.sprintf "%s=#%d" k (Hashtbl.hash (Tensor.to_string t))
           | a -> k ^ "=" ^ Attr.to_string a)
         n.Node.attrs)
  in
  Printf.sprintf "%s|%s|%s|%s|%s" n.Node.op_type attr_part
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun (e : Node.endpoint) ->
               Printf.sprintf "%d:%d" e.node_id e.index)
             n.Node.inputs)))
    (* Control dependencies are a set: [redirect] rebuilds them through
       [List.sort_uniq], so the key must not distinguish [a;b] from
       [b;a] or structurally identical nodes never merge. *)
    (String.concat ","
       (List.map string_of_int (List.sort_uniq compare n.Node.control_inputs)))
    (Device.spec_to_string n.Node.device_spec)

let structurally_equal (a : Node.t) (b : Node.t) =
  a.Node.op_type = b.Node.op_type
  && a.Node.inputs = b.Node.inputs
  && List.sort_uniq compare a.Node.control_inputs
     = List.sort_uniq compare b.Node.control_inputs
  && a.Node.attrs = b.Node.attrs
  && a.Node.device_spec = b.Node.device_spec

let cse graph ~nodes ~fed =
  let merged = ref 0 in
  let canonical : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let order = Graph.topological_order graph in
  let in_set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) nodes;
  List.iter
    (fun (n : Node.t) ->
      if Hashtbl.mem in_set n.Node.id && (not (Hashtbl.mem fed n.Node.id))
         && is_pure n
      then begin
        (* Re-read the node: earlier merges may have rewired its inputs. *)
        let n = Graph.get graph n.Node.id in
        let key = cse_key n in
        match Hashtbl.find_opt canonical key with
        | None -> Hashtbl.replace canonical key n.Node.id
        | Some canon_id ->
            if
              canon_id <> n.Node.id
              && structurally_equal n (Graph.get graph canon_id)
            then begin
              redirect graph ~old_id:n.Node.id ~new_id:canon_id;
              incr merged
            end
      end)
    order;
  !merged

(* Fold trained variables into constants. Every [Read] in the step whose
   producing [Variable]'s name the lookup resolves is redirected to a
   [Const] holding the tensor; one Const is shared by all Reads of the
   same variable. The Variables themselves become dead and fall to the
   next prune. *)
let freeze graph ~nodes ~fed ~lookup =
  let frozen = ref 0 in
  let in_set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) nodes;
  let const_of : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let n = Graph.get graph id in
      if
        n.Node.op_type = "Read"
        && (not (Hashtbl.mem fed id))
        && Array.length n.Node.inputs > 0
      then
        let producer = Graph.get graph n.Node.inputs.(0).Node.node_id in
        if producer.Node.op_type = "Variable" then
          let var_name = producer.Node.name in
          let const_id =
            match Hashtbl.find_opt const_of var_name with
            | Some cid -> Some cid
            | None -> (
                match lookup var_name with
                | None -> None
                | Some tensor ->
                    let const =
                      Graph.add_node graph
                        ~name:(var_name ^ "/frozen")
                        ~attrs:[ ("value", Attr.Tensor tensor) ]
                        ~device:n.Node.device_spec ~op_type:"Const" ()
                    in
                    Hashtbl.replace const_of var_name const.Node.id;
                    Some const.Node.id)
          in
          match const_id with
          | None -> ()
          | Some new_id ->
              redirect graph ~old_id:id ~new_id;
              incr frozen)
    nodes;
  !frozen

(* ---------------------------- fusion ------------------------------ *)

(* Collapse maximal chains/trees of pure elementwise operations into
   single [FusedElementwise] nodes (§3.3; the 2015 white paper lists
   "fusing elementwise kernels" among the master's graph
   optimizations). The fused node's "expr" attribute carries the
   operation tree in postfix ({!Fused_eval.to_postfix}); its data
   inputs are the group's external producers in expression order.

   Legality: a node joins a group only when it is pure, elementwise
   (single-output, {!Fused_eval} knows its scalar function), unfed,
   unpinned (not fetched or targeted — a pinned endpoint must still
   materialize), free of control edges in either direction (a control
   dependency needs a real node to anchor it), on the root's device
   spec, and — for interior nodes — consumed exactly once, by the
   group. Multi-consumer producers stay unfused (they may root their
   own group) rather than being recomputed per consumer. AddN joins as
   the left fold of binary Adds its kernel computes. Row-wise ops
   (Softmax, cross-entropy) never join: they reduce within rows, so
   they are not per-element functions of their inputs. *)

let max_fused_nodes = 64

let m_fusion_groups =
  Metrics.Counter.v ~help:"Elementwise fusion groups formed by the Fuse pass"
    "octf_fusion_groups_total"

let m_fusion_nodes =
  Metrics.Counter.v
    ~help:"Original operation nodes collapsed into FusedElementwise kernels"
    "octf_fusion_nodes_total"

let fusable_op (n : Node.t) =
  (Fused_eval.is_unary n.Node.op_type && Array.length n.Node.inputs = 1)
  || (Fused_eval.is_binary n.Node.op_type && Array.length n.Node.inputs = 2)
  || (n.Node.op_type = "AddN" && Array.length n.Node.inputs >= 2)

let fuse graph ~nodes ~fed ~pinned =
  let in_set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) nodes;
  (* Data-consumer edge counts and control dependents over the step's
     node set (dead duplicates outside the set must not block fusion). *)
  let data_consumers = Hashtbl.create 64 in
  let control_dep = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let n = Graph.get graph id in
      Array.iter
        (fun (e : Node.endpoint) ->
          Hashtbl.replace data_consumers e.node_id
            (1
            + Option.value ~default:0
                (Hashtbl.find_opt data_consumers e.node_id)))
        n.Node.inputs;
      List.iter
        (fun c -> Hashtbl.replace control_dep c ())
        n.Node.control_inputs)
    nodes;
  let grouped = Hashtbl.create 64 in
  let eligible (n : Node.t) =
    Hashtbl.mem in_set n.Node.id
    && (not (Hashtbl.mem fed n.Node.id))
    && (not (Hashtbl.mem pinned n.Node.id))
    && (not (Hashtbl.mem grouped n.Node.id))
    && is_pure n && fusable_op n
    && n.Node.control_inputs = []
  in
  let groups = ref 0 in
  (* Reverse topological order: each chain is rooted at its topmost
     consumer and grows down through producers, so one sweep forms
     maximal groups. *)
  let order = List.rev (Graph.topological_order graph) in
  List.iter
    (fun (r : Node.t) ->
      let r = Graph.get graph r.Node.id in
      if eligible r then begin
        let members = ref [ r.Node.id ] in
        let size = ref 1 in
        let ext_inputs = ref [] in
        let input_idx (e : Node.endpoint) =
          let rec find k = function
            | [] ->
                ext_inputs := !ext_inputs @ [ e ];
                k
            | x :: tl -> if x = e then k else find (k + 1) tl
          in
          find 0 !ext_inputs
        in
        let rec build (e : Node.endpoint) =
          let p = Graph.get graph e.node_id in
          if
            e.Node.index = 0 && eligible p
            && p.Node.device_spec = r.Node.device_spec
            && (not (Hashtbl.mem control_dep p.Node.id))
            && Option.value ~default:0
                 (Hashtbl.find_opt data_consumers p.Node.id)
               = 1
            && !size < max_fused_nodes
          then begin
            members := p.Node.id :: !members;
            incr size;
            node_expr p
          end
          else Fused_eval.Input (input_idx e)
        and node_expr (p : Node.t) =
          if p.Node.op_type = "AddN" then begin
            (* The AddN kernel left-folds binary adds; expressed the
               same way the fused result is bit-identical. *)
            let acc = ref (build p.Node.inputs.(0)) in
            for k = 1 to Array.length p.Node.inputs - 1 do
              acc := Fused_eval.Binary ("Add", !acc, build p.Node.inputs.(k))
            done;
            !acc
          end
          else if Array.length p.Node.inputs = 1 then
            Fused_eval.Unary (p.Node.op_type, build p.Node.inputs.(0))
          else
            let a = build p.Node.inputs.(0) in
            let b = build p.Node.inputs.(1) in
            Fused_eval.Binary (p.Node.op_type, a, b)
        in
        let expr = node_expr r in
        if !size >= 2 then begin
          let fused =
            Graph.add_node graph
              ~name:(r.Node.name ^ "/fused")
              ~inputs:!ext_inputs
              ~attrs:
                [
                  ("expr", Attr.Strings (Fused_eval.to_postfix expr));
                  ("fused_nodes", Attr.Int !size);
                ]
              ~device:r.Node.device_spec ~op_type:"FusedElementwise" ()
          in
          redirect graph ~old_id:r.Node.id ~new_id:fused.Node.id;
          List.iter (fun id -> Hashtbl.replace grouped id ()) !members;
          incr groups;
          Metrics.Counter.incr m_fusion_groups;
          Metrics.Counter.add m_fusion_nodes !size
        end
      end)
    order;
  !groups

(* -------------------------- quantization ------------------------- *)

(* Rewrite eligible MatMul / Conv2D subgraphs of a frozen inference
   graph into int8 islands (§5: gemmlowp-style quantized inference):

     x ──► Quantize[Range] ──► Quantized<Op>[Q] ──► [Dequantize] ──► ...
             weights: pre-quantized at rewrite time into a packed uint8
             codes Const plus two scalar range Consts (4x smaller).

   Eligibility: the root is a pure, unfed, unpinned MatMul (no
   transposes) or Conv2D with no control edges in either direction
   whose weight operand (input 1) is a Const holding an F32 tensor —
   which is exactly what [Freeze] produces for inference graphs, and
   keeps the pass inert on training graphs (weights are Reads of
   Variables) and on F64 gradient-check graphs.

   With a calibrated range for the island's output ([ranges] hit on the
   node name), the island absorbs the usual inference epilogue — a
   broadcast Add of a rank-1 F32 Const bias, then Relu, each single-
   consumer and clean — into the codes-out kernel variant and decodes
   through an explicit Dequantize. Consecutive calibrated islands then
   exchange codes directly: a later elision sweep rewires any
   Quantize-of-Dequantize straight to the producer's code/range
   endpoints (legal because codes and range travel together — the
   producer's calibrated range becomes authoritative for the consumer).
   Without a calibrated output range the island is the root alone,
   lowered to the float-out kernel (dynamic activation quantization).

   Pinned (fetched) nodes are never rewritten, so a model's final
   logits layer stays float — standard quantization practice. *)

let m_quant_islands =
  Metrics.Counter.v ~help:"Subgraphs rewritten to int8 islands"
    "octf_quant_islands_total"

let m_quant_elisions =
  Metrics.Counter.v
    ~help:"Dequantize->Quantize pairs elided between adjacent islands"
    "octf_quant_elisions_total"

let m_quant_weight_bytes_float =
  Metrics.Counter.v ~help:"Float bytes of weights consumed by quantization"
    "octf_quant_weight_bytes_float_total"

let m_quant_weight_bytes_code =
  Metrics.Counter.v ~help:"Packed uint8 bytes of quantized weight codes"
    "octf_quant_weight_bytes_code_total"

(* Per-slot redirect with arbitrary endpoint targets: consumer endpoint
   (old_id, k) moves to [targets.(k)] — used by elision, where output k
   of a minted Quantize node maps to the k-th input endpoint of the
   producing Dequantize. *)
let redirect_to_endpoints graph ~old_id ~(targets : Node.endpoint array) =
  Graph.iter graph (fun n ->
      Array.iteri
        (fun slot (e : Node.endpoint) ->
          if e.node_id = old_id && e.index < Array.length targets then
            Graph.set_input graph ~node_id:n.Node.id ~slot targets.(e.index))
        n.Node.inputs);
  Graph.iter graph (fun n ->
      if List.mem old_id n.Node.control_inputs then
        Graph.replace_control_inputs graph ~node_id:n.Node.id
          (List.sort_uniq compare
             (List.map
                (fun c -> if c = old_id then targets.(0).Node.node_id else c)
                n.Node.control_inputs)))

let endpoint_name graph (e : Node.endpoint) =
  let p = Graph.get graph e.node_id in
  if e.index = 0 then p.Node.name
  else Printf.sprintf "%s:%d" p.Node.name e.index

let const_tensor graph id =
  let p = Graph.get graph id in
  if p.Node.op_type = "Const" then
    match List.assoc_opt "value" p.Node.attrs with
    | Some (Attr.Tensor t) -> Some t
    | _ -> None
  else None

let quantize_graph graph ~nodes ~fed ~pinned ~ranges =
  let in_set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) nodes;
  let data_consumers = Hashtbl.create 64 in
  let consumers_of = Hashtbl.create 64 in
  let control_dep = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let n = Graph.get graph id in
      Array.iter
        (fun (e : Node.endpoint) ->
          Hashtbl.replace data_consumers e.node_id
            (1
            + Option.value ~default:0
                (Hashtbl.find_opt data_consumers e.node_id));
          Hashtbl.replace consumers_of e.node_id
            (n.Node.id
            :: Option.value ~default:[]
                 (Hashtbl.find_opt consumers_of e.node_id)))
        n.Node.inputs;
      List.iter
        (fun c -> Hashtbl.replace control_dep c ())
        n.Node.control_inputs)
    nodes;
  let rewritten = Hashtbl.create 16 in
  let clean (n : Node.t) =
    Hashtbl.mem in_set n.Node.id
    && (not (Hashtbl.mem fed n.Node.id))
    && (not (Hashtbl.mem pinned n.Node.id))
    && (not (Hashtbl.mem rewritten n.Node.id))
    && is_pure n
    && n.Node.control_inputs = []
    && not (Hashtbl.mem control_dep n.Node.id)
  in
  (* Output width of the contraction, for bias-length checks. *)
  let out_cols (root : Node.t) w =
    match root.Node.op_type with
    | "MatMul" -> (Tensor.shape w).(1)
    | _ -> (Tensor.shape w).(3)
  in
  let weight_of (root : Node.t) =
    if Array.length root.Node.inputs <> 2 then None
    else
      let e = root.Node.inputs.(1) in
      if e.Node.index <> 0 then None
      else
        match const_tensor graph e.node_id with
        | Some w
          when Tensor.dtype w = Dtype.F32
               && Tensor.rank w
                  = (if root.Node.op_type = "MatMul" then 2 else 4) ->
            Some (Graph.get graph e.node_id, w)
        | _ -> None
  in
  let no_transpose (n : Node.t) name =
    not (Option.value ~default:false (Attr.find_bool n.Node.attrs name))
  in
  let eligible_root (n : Node.t) =
    clean n
    && (match n.Node.op_type with
       | "MatMul" -> no_transpose n "transpose_a" && no_transpose n "transpose_b"
       | "Conv2D" -> true
       | _ -> false)
    && weight_of n <> None
  in
  let sole_consumer (n : Node.t) =
    if
      Option.value ~default:0 (Hashtbl.find_opt data_consumers n.Node.id) = 1
    then
      match Hashtbl.find_opt consumers_of n.Node.id with
      | Some [ cid ] -> Some (Graph.get graph cid)
      | _ -> None
    else None
  in
  (* The broadcast bias-add epilogue: Add(island, b) or Add(b, island)
     with [b] a rank-1 F32 Const matching the contraction's width. *)
  let bias_endpoint_of ~prev ~cols (c : Node.t) =
    if c.Node.op_type <> "Add" || Array.length c.Node.inputs <> 2 then None
    else
      let other =
        if c.Node.inputs.(0).Node.node_id = prev then Some c.Node.inputs.(1)
        else if c.Node.inputs.(1).Node.node_id = prev then
          Some c.Node.inputs.(0)
        else None
      in
      match other with
      | Some e when e.Node.index = 0 -> (
          match const_tensor graph e.node_id with
          | Some b
            when Tensor.dtype b = Dtype.F32
                 && Tensor.rank b = 1
                 && (Tensor.shape b).(0) = cols ->
              Some e
          | _ -> None)
      | _ -> None
  in
  let absorb (root : Node.t) ~cols =
    let bias = ref None and relu = ref None and last = ref root in
    let try_relu (c : Node.t) =
      if c.Node.op_type = "Relu" && Array.length c.Node.inputs = 1 then begin
        relu := Some c.Node.id;
        last := c
      end
    in
    (match sole_consumer root with
    | Some c when clean c && c.Node.device_spec = root.Node.device_spec -> (
        match bias_endpoint_of ~prev:root.Node.id ~cols c with
        | Some be ->
            bias := Some be;
            last := c
        | None -> try_relu c)
    | _ -> ());
    if !relu = None && !bias <> None then (
      match sole_consumer !last with
      | Some c when clean c && c.Node.device_spec = root.Node.device_spec ->
          try_relu c
      | _ -> ());
    (!bias, !relu, !last)
  in
  let weight_cache = Hashtbl.create 8 in
  let quantized_weight (wnode : Node.t) w =
    match Hashtbl.find_opt weight_cache wnode.Node.id with
    | Some trio -> trio
    | None ->
        let qw, wlo, whi = Quant_kernels.quantize w in
        let mk suffix v =
          (Graph.add_node graph
             ~name:(wnode.Node.name ^ suffix)
             ~attrs:[ ("value", Attr.Tensor v) ]
             ~device:wnode.Node.device_spec ~op_type:"Const" ())
            .Node.id
        in
        let trio =
          ( mk "/codes" qw,
            mk "/qlo" (Tensor.scalar_f wlo),
            mk "/qhi" (Tensor.scalar_f whi) )
        in
        Metrics.Counter.add m_quant_weight_bytes_float (Tensor.byte_size w);
        Metrics.Counter.add m_quant_weight_bytes_code (Tensor.byte_size qw);
        Hashtbl.replace weight_cache wnode.Node.id trio;
        trio
  in
  (* Minted activation-quantize nodes, remembered for the elision sweep;
     minted Dequantizes, for the sink; and every node the pass mints. *)
  let minted_quants = ref [] in
  let minted_deqs = Queue.create () in
  let minted = ref [] in
  let mint ?inputs ?attrs ~name ~device ~op_type () =
    let node = Graph.add_node graph ~name ?inputs ?attrs ~device ~op_type () in
    minted := node.Node.id :: !minted;
    if op_type = "Dequantize" then Queue.add node.Node.id minted_deqs;
    node
  in
  let quant_input (root : Node.t) =
    let e0 = root.Node.inputs.(0) in
    let node =
      match ranges (endpoint_name graph e0) with
      | Some (lo, hi) ->
          mint
            ~name:(root.Node.name ^ "/qin")
            ~inputs:[ e0 ]
            ~attrs:[ ("lo", Attr.Float lo); ("hi", Attr.Float hi) ]
            ~device:root.Node.device_spec ~op_type:"QuantizeRange" ()
      | None ->
          mint
            ~name:(root.Node.name ^ "/qin")
            ~inputs:[ e0 ] ~device:root.Node.device_spec ~op_type:"Quantize"
            ()
    in
    minted_quants := node.Node.id :: !minted_quants;
    node
  in
  let contraction_attrs (root : Node.t) =
    if root.Node.op_type = "Conv2D" then
      [
        ("strides", Attr.Ints (Node.attr_ints root "strides"));
        ("padding", Attr.String (Node.attr_string root "padding"));
      ]
    else []
  in
  let islands = ref 0 in
  let order = Graph.topological_order graph in
  List.iter
    (fun (n : Node.t) ->
      let n = Graph.get graph n.Node.id in
      if eligible_root n then begin
        let wnode, w = Option.get (weight_of n) in
        let cols = out_cols n w in
        let bias_e, relu_id, last = absorb n ~cols in
        let qa = quant_input n in
        let cw, lw, hw = quantized_weight wnode w in
        let base_inputs =
          [
            Node.endpoint qa.Node.id 0;
            Node.endpoint qa.Node.id 1;
            Node.endpoint qa.Node.id 2;
            Node.endpoint cw 0;
            Node.endpoint lw 0;
            Node.endpoint hw 0;
          ]
        in
        (match ranges last.Node.name with
        | Some (out_lo, out_hi) ->
            (* Calibrated: codes-out kernel with fused epilogue, decoded
               by an explicit Dequantize so downstream islands can elide
               the float round trip. *)
            let epilogue =
              match (bias_e, relu_id) with
              | None, None -> "none"
              | Some _, None -> "bias"
              | None, Some _ -> "relu"
              | Some _, Some _ -> "bias_relu"
            in
            let op_type =
              if n.Node.op_type = "MatMul" then "QuantizedMatMulQ"
              else "QuantizedConv2DQ"
            in
            let qnode =
              mint
                ~name:(n.Node.name ^ "/quant")
                ~inputs:
                  (base_inputs
                  @ match bias_e with None -> [] | Some e -> [ e ])
                ~attrs:
                  (contraction_attrs n
                  @ [
                      ("epilogue", Attr.String epilogue);
                      ("out_lo", Attr.Float out_lo);
                      ("out_hi", Attr.Float out_hi);
                    ])
                ~device:n.Node.device_spec ~op_type ()
            in
            let deq =
              mint
                ~name:(n.Node.name ^ "/deq")
                ~inputs:
                  [
                    Node.endpoint qnode.Node.id 0;
                    Node.endpoint qnode.Node.id 1;
                    Node.endpoint qnode.Node.id 2;
                  ]
                ~device:n.Node.device_spec ~op_type:"Dequantize" ()
            in
            redirect graph ~old_id:last.Node.id ~new_id:deq.Node.id;
            Hashtbl.replace rewritten n.Node.id ();
            Hashtbl.replace rewritten last.Node.id ();
            (match relu_id with
            | Some rid -> Hashtbl.replace rewritten rid ()
            | None -> ())
        | None ->
            (* No calibrated output range: lower the root alone to the
               float-out kernel (dynamic activation quantization). *)
            let op_type =
              if n.Node.op_type = "MatMul" then "QuantizedMatMul"
              else "QuantizedConv2D"
            in
            let qnode =
              mint
                ~name:(n.Node.name ^ "/quant")
                ~inputs:base_inputs ~attrs:(contraction_attrs n)
                ~device:n.Node.device_spec ~op_type ()
            in
            redirect graph ~old_id:n.Node.id ~new_id:qnode.Node.id;
            Hashtbl.replace rewritten n.Node.id ());
        incr islands;
        Metrics.Counter.incr m_quant_islands
      end)
    order;
  (* Sink: a minted Dequantize whose one consumer is a clean MaxPool or
     Reshape moves below it. That node reads the codes (max pooling
     commutes with the monotone decode; a reshape only relabels them),
     and a new Dequantize with the same range decodes its output, so
     the elision below can take out a Quantize that follows. Consumers
     are counted among the step's live nodes and the nodes this pass
     minted: the frozen graph's training nodes (a MaxPoolGrad, say) were
     rewired onto the Dequantize as well, but never run in this step. *)
  let readers id =
    List.concat_map
      (fun cid ->
        if Hashtbl.mem rewritten cid then []
        else
          let c = Graph.get graph cid in
          let data =
            List.filter_map
              (fun slot ->
                if c.Node.inputs.(slot).Node.node_id = id then Some (c, slot)
                else None)
              (List.init (Array.length c.Node.inputs) Fun.id)
          in
          if List.mem id c.Node.control_inputs then (c, -1) :: data else data)
      (nodes @ !minted)
  in
  while not (Queue.is_empty minted_deqs) do
    let d = Graph.get graph (Queue.pop minted_deqs) in
    match readers d.Node.id with
    | [ (c, 0) ]
      when (c.Node.op_type = "MaxPool" || c.Node.op_type = "Reshape")
           && Array.length c.Node.inputs = 1
           && c.Node.inputs.(0).Node.index = 0
           && c.Node.device_spec = d.Node.device_spec
           && clean c ->
        let codes =
          mint ~name:(c.Node.name ^ "/codes")
            ~inputs:[ d.Node.inputs.(0) ]
            ~attrs:c.Node.attrs ~device:c.Node.device_spec
            ~op_type:c.Node.op_type ()
        in
        let deq =
          mint ~name:(c.Node.name ^ "/deq")
            ~inputs:
              [ Node.endpoint codes.Node.id 0; d.Node.inputs.(1); d.Node.inputs.(2) ]
            ~device:c.Node.device_spec ~op_type:"Dequantize" ()
        in
        redirect graph ~old_id:c.Node.id ~new_id:deq.Node.id;
        Hashtbl.replace rewritten c.Node.id ();
        Hashtbl.replace rewritten d.Node.id ()
    | _ -> ()
  done;
  (* Elision: a minted Quantize[Range] reading a Dequantize's output
     takes the producer's code/range endpoints directly. *)
  List.iter
    (fun qid ->
      let qn = Graph.get graph qid in
      let e0 = qn.Node.inputs.(0) in
      let p = Graph.get graph e0.node_id in
      if
        p.Node.op_type = "Dequantize"
        && e0.Node.index = 0
        && Array.length p.Node.inputs = 3
      then begin
        redirect_to_endpoints graph ~old_id:qid ~targets:p.Node.inputs;
        Metrics.Counter.incr m_quant_elisions
      end)
    (List.rev !minted_quants);
  !islands

type pass =
  | Prune
  | Constant_fold
  | Cse
  | Fuse
  | Freeze of (string -> Tensor.t option)
  | Quantize of (string -> (float * float) option)

(* The mid-pipeline Prune refreshes the node set so Consts minted by
   folding are visible to CSE (rewriting passes only see the current
   set; new nodes enter it at the next prune). *)
let default_pipeline = [ Constant_fold; Prune; Cse; Prune ]

(* Fusion runs after fold/CSE (folded constants become external inputs,
   merged duplicates raise consumer counts honestly) and is followed by
   its own prune to drop the absorbed originals. *)
let fused_pipeline = default_pipeline @ [ Fuse; Prune ]

let pass_name = function
  | Prune -> "prune"
  | Constant_fold -> "constant_fold"
  | Cse -> "cse"
  | Fuse -> "fuse"
  | Freeze _ -> "freeze"
  | Quantize _ -> "quantize"

let run graph ~passes ~feeds ~fetches ~targets =
  let fed = Hashtbl.create 8 in
  List.iter (fun (e : Node.endpoint) -> Hashtbl.replace fed e.node_id ()) feeds;
  let pinned = Hashtbl.create 8 in
  List.iter
    (fun (e : Node.endpoint) -> Hashtbl.replace pinned e.node_id ())
    fetches;
  List.iter (fun id -> Hashtbl.replace pinned id ()) targets;
  let prune () = Pruner.prune graph ~feeds ~fetches ~targets in
  (* The step definition itself is the initial node set. *)
  let nodes = ref (prune ()) in
  List.iter
    (fun pass ->
      match pass with
      | Prune -> nodes := prune ()
      | Constant_fold -> ignore (constant_fold graph ~nodes:!nodes ~fed)
      | Cse -> ignore (cse graph ~nodes:!nodes ~fed)
      | Fuse -> ignore (fuse graph ~nodes:!nodes ~fed ~pinned)
      | Freeze lookup -> ignore (freeze graph ~nodes:!nodes ~fed ~lookup)
      | Quantize ranges ->
          ignore (quantize_graph graph ~nodes:!nodes ~fed ~pinned ~ranges))
    passes;
  !nodes
