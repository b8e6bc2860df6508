(* Master-side graph optimizations (§5): CSE and constant folding. *)

open Octf_tensor
open Octf
module B = Builder

(* Constant folding then CSE over the step that fetches [fetches]. *)
let fold_and_cse ?(feeds = []) g fetches =
  ignore
    (Graph_optimizer.run g
       ~passes:[ Graph_optimizer.Constant_fold; Graph_optimizer.Cse ]
       ~feeds ~fetches ~targets:[])

let test_constant_folding () =
  let b = B.create () in
  let x = B.add b (B.const_f b 2.0) (B.const_f b 3.0) in
  let y = B.mul b x (B.const_f b 4.0) in
  fold_and_cse (B.graph b) [ B.endpoint_of_output y ];
  (* y's producer chain must now be folded consts. *)
  let y_node = Graph.get (B.graph b) y.B.node.Node.id in
  let all_const =
    Array.for_all
      (fun (e : Node.endpoint) ->
        (Graph.get (B.graph b) e.node_id).Node.op_type = "Const")
      y_node.Node.inputs
  in
  Alcotest.(check bool) "inputs folded" true all_const;
  (* Semantics preserved. *)
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  Alcotest.(check (float 0.)) "value" 20.0
    (Tensor.flat_get_f (List.hd (Session.run s [ y ])) 0)

let test_cse_merges_duplicates () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let a = B.square b x in
  let c = B.square b x in
  let y = B.add b a c in
  fold_and_cse (B.graph b)
    ~feeds:[ B.endpoint_of_output x ]
    [ B.endpoint_of_output y ];
  let y_node = Graph.get (B.graph b) y.B.node.Node.id in
  Alcotest.(check int) "both inputs point at one node"
    y_node.Node.inputs.(0).Node.node_id
    y_node.Node.inputs.(1).Node.node_id;
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  Alcotest.(check (float 0.)) "value" 18.0
    (Tensor.flat_get_f
       (List.hd (Session.run ~feeds:[ (x, Tensor.scalar_f 3.0) ] s [ y ]))
       0)

let test_stateful_never_merged () =
  let b = B.create () in
  let r1 = B.random_uniform b [| 2 |] in
  let r2 = B.random_uniform b [| 2 |] in
  let y = B.add b r1 r2 in
  fold_and_cse (B.graph b) [ B.endpoint_of_output y ];
  let y_node = Graph.get (B.graph b) y.B.node.Node.id in
  Alcotest.(check bool) "random ops stay distinct" true
    (y_node.Node.inputs.(0).Node.node_id
    <> y_node.Node.inputs.(1).Node.node_id)

let test_fed_nodes_not_folded () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.neg b x in
  fold_and_cse (B.graph b)
    ~feeds:[ B.endpoint_of_output x ]
    [ B.endpoint_of_output y ];
  let y_node = Graph.get (B.graph b) y.B.node.Node.id in
  Alcotest.(check string) "still reads the placeholder" "Placeholder"
    (Graph.get (B.graph b) y_node.Node.inputs.(0).Node.node_id).Node.op_type

let test_session_optimized_run_matches () =
  (* End to end: optimize on vs off produce identical results. *)
  let build () =
    let b = B.create () in
    let x = B.placeholder b Dtype.F32 in
    let k = B.add b (B.const_f b 1.0) (B.const_f b 1.0) in
    let y = B.add b (B.mul b x k) (B.mul b x k) in
    (b, x, y)
  in
  let b1, x1, y1 = build () in
  let b2, x2, y2 = build () in
  let v s x y =
    Tensor.flat_get_f
      (List.hd
         (Session.run ~feeds:[ (x, Tensor.scalar_f 2.5) ] s [ y ]))
      0
  in
  let s1 = Session.create (B.graph b1) in
  let s2 =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b2)
  in
  Alcotest.(check (float 1e-9)) "same result" (v s2 x2 y2) (v s1 x1 y1)

let test_reprune_after_optimize () =
  (* CSE leaves the losing duplicate disconnected; the session must
     re-prune after optimizing or the orphan still executes. Count the
     Mul kernel invocations in the step stats: exactly one. *)
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let k = B.const_f b 3.0 in
  let y = B.add b (B.mul b x k) (B.mul b x k) in
  let s = Session.create (B.graph b) in
  let options =
    Session.Run_options.v
      ~feeds:[ (x, Tensor.scalar_f 2.0) ]
      ~collect_stats:true ()
  in
  let fetched, md = Session.run_with_metadata ~options s [ y ] in
  Alcotest.(check (float 1e-9)) "value" 12.0
    (Tensor.flat_get_f (List.hd fetched) 0);
  let stats = Option.get md.Session.Run_metadata.step_stats in
  let muls =
    List.length
      (List.filter
         (fun ns -> ns.Step_stats.op_type = "Mul")
         stats.Step_stats.nodes)
  in
  Alcotest.(check int) "one Mul after CSE + re-prune" 1 muls

let test_is_pure () =
  let b = B.create () in
  let c = B.const_f b 1.0 in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[||] () in
  let p = B.placeholder b Dtype.F32 in
  Alcotest.(check bool) "const pure" true (Graph_optimizer.is_pure c.B.node);
  Alcotest.(check bool) "variable impure" false
    (Graph_optimizer.is_pure v.B.node);
  Alcotest.(check bool) "placeholder impure" false
    (Graph_optimizer.is_pure p.B.node)

(* The declared pass pipeline: run with the default passes must agree
   with the pruned-only step on fetched values while executing fewer
   nodes, and pass order is the caller's to choose. *)
let test_run_pipeline () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let k = B.add b (B.const_f b 2.0) (B.const_f b 3.0) in
  let y1 = B.mul b x k in
  let y2 = B.mul b x (B.add b (B.const_f b 2.0) (B.const_f b 3.0)) in
  let z = B.add b y1 y2 in
  let feeds = [ B.endpoint_of_output x ] in
  let fetches = [ B.endpoint_of_output z ] in
  let pruned_only =
    Graph_optimizer.run (B.graph b) ~passes:[] ~feeds ~fetches ~targets:[]
  in
  let optimized =
    Graph_optimizer.run (B.graph b)
      ~passes:Graph_optimizer.default_pipeline ~feeds ~fetches ~targets:[]
  in
  Alcotest.(check bool) "fold+cse shrank the step" true
    (List.length optimized < List.length pruned_only);
  (* the optimized set carries no non-Const producer pair duplicates:
     the two x*k branches merged *)
  let muls =
    List.filter
      (fun id -> (Graph.get (B.graph b) id).Node.op_type = "Mul")
      optimized
  in
  Alcotest.(check int) "one surviving Mul" 1 (List.length muls)

let test_freeze_pass () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let v = B.variable b ~name:"weights" ~dtype:Dtype.F32 ~shape:[||] () in
  let y = B.mul b x (B.read b v) in
  let feeds = [ B.endpoint_of_output x ] in
  let fetches = [ B.endpoint_of_output y ] in
  let values = function
    | "weights" -> Some (Tensor.scalar_f 4.0)
    | _ -> None
  in
  let nodes =
    Graph_optimizer.run (B.graph b)
      ~passes:[ Graph_optimizer.Freeze values; Graph_optimizer.Prune ]
      ~feeds ~fetches ~targets:[]
  in
  let ops = List.map (fun id -> (Graph.get (B.graph b) id).Node.op_type) nodes in
  Alcotest.(check bool) "Variable pruned away" false
    (List.mem "Variable" ops);
  Alcotest.(check bool) "Read pruned away" false (List.mem "Read" ops);
  Alcotest.(check bool) "a Const took its place" true (List.mem "Const" ops);
  (* an unresolvable variable is left alone *)
  let b2 = B.create () in
  let x2 = B.placeholder b2 Dtype.F32 in
  let v2 = B.variable b2 ~name:"other" ~dtype:Dtype.F32 ~shape:[||] () in
  let y2 = B.mul b2 x2 (B.read b2 v2) in
  let nodes2 =
    Graph_optimizer.run (B.graph b2)
      ~passes:[ Graph_optimizer.Freeze values; Graph_optimizer.Prune ]
      ~feeds:[ B.endpoint_of_output x2 ]
      ~fetches:[ B.endpoint_of_output y2 ]
      ~targets:[]
  in
  let ops2 =
    List.map (fun id -> (Graph.get (B.graph b2) id).Node.op_type) nodes2
  in
  Alcotest.(check bool) "unresolved Variable kept" true
    (List.mem "Variable" ops2)

let test_pass_names () =
  Alcotest.(check (list string))
    "pass names"
    [ "prune"; "constant_fold"; "cse"; "fuse"; "freeze" ]
    (List.map Graph_optimizer.pass_name
       [
         Graph_optimizer.Prune;
         Graph_optimizer.Constant_fold;
         Graph_optimizer.Cse;
         Graph_optimizer.Fuse;
         Graph_optimizer.Freeze (fun _ -> None);
       ])

(* Control dependencies are a set: two otherwise identical nodes whose
   control lists differ only in order must merge. Built via
   Graph.add_node because Builder.op sorts control inputs itself, which
   would mask the sensitivity. *)
let test_cse_control_input_order () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let c1 = B.square b x in
  let c2 = B.sqrt b x in
  let g = B.graph b in
  let xe = B.endpoint_of_output x in
  let n1 =
    Graph.add_node g ~name:"n1" ~inputs:[ xe ]
      ~control_inputs:[ c1.B.node.Node.id; c2.B.node.Node.id ]
      ~op_type:"Neg" ()
  in
  let n2 =
    Graph.add_node g ~name:"n2" ~inputs:[ xe ]
      ~control_inputs:[ c2.B.node.Node.id; c1.B.node.Node.id ]
      ~op_type:"Neg" ()
  in
  let y =
    Graph.add_node g ~name:"y"
      ~inputs:[ Node.endpoint n1.Node.id 0; Node.endpoint n2.Node.id 0 ]
      ~op_type:"Add" ()
  in
  fold_and_cse g ~feeds:[ xe ] [ Node.endpoint y.Node.id 0 ];
  let y_node = Graph.get g y.Node.id in
  Alcotest.(check int) "order-permuted control sets merged"
    y_node.Node.inputs.(0).Node.node_id
    y_node.Node.inputs.(1).Node.node_id

(* Multi-output pure ops fold too: a Const-fed Split folds to one Const
   per output slot, letting the whole downstream chain fold. *)
let test_multi_output_constant_fold () =
  let b = B.create () in
  let c =
    B.const b (Tensor.of_float_array [| 2; 2 |] [| 1.0; 2.0; 3.0; 4.0 |])
  in
  let parts = B.split b c ~axis:0 ~num:2 in
  let y =
    match parts with
    | [ p0; p1 ] -> B.add b p0 p1
    | _ -> Alcotest.fail "split arity"
  in
  let z = B.neg b y in
  fold_and_cse (B.graph b) [ B.endpoint_of_output z ];
  let z_node = Graph.get (B.graph b) z.B.node.Node.id in
  Alcotest.(check string) "folding propagated through Split" "Const"
    (Graph.get (B.graph b) z_node.Node.inputs.(0).Node.node_id).Node.op_type;
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let t = List.hd (Session.run s [ z ]) in
  Alcotest.(check (float 0.)) "value [0]" (-4.0) (Tensor.flat_get_f t 0);
  Alcotest.(check (float 0.)) "value [1]" (-6.0) (Tensor.flat_get_f t 1)

(* A FusedElementwise node whose "expr" cannot be compiled (here, an
   unknown token, as an imported graph may carry) over Const inputs is
   left unfolded rather than aborting the optimizer; running it still
   reports the bad expression. *)
let test_bad_fused_expr_not_folded () =
  let b = B.create () in
  let fused =
    B.op b ~op_type:"FusedElementwise"
      ~attrs:[ ("expr", Attr.Strings [ "in0"; "in1"; "Bogus" ]) ]
      [ B.const_f b 2.0; B.const_f b 3.0 ]
  in
  let y = B.output fused in
  ignore
    (Graph_optimizer.run (B.graph b) ~passes:[ Graph_optimizer.Constant_fold ]
       ~feeds:[] ~fetches:[ B.endpoint_of_output y ] ~targets:[]);
  Alcotest.(check string) "node kept" "FusedElementwise"
    (Graph.get (B.graph b) fused.Node.id).Node.op_type;
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ y ] with
  | _ -> Alcotest.fail "bad expr ran"
  | exception _ -> ()

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "run pass pipeline" `Quick test_run_pipeline;
    Alcotest.test_case "freeze pass" `Quick test_freeze_pass;
    Alcotest.test_case "pass names" `Quick test_pass_names;
    Alcotest.test_case "cse merges" `Quick test_cse_merges_duplicates;
    Alcotest.test_case "cse ignores control-input order" `Quick
      test_cse_control_input_order;
    Alcotest.test_case "multi-output constant fold" `Quick
      test_multi_output_constant_fold;
    Alcotest.test_case "stateful never merged" `Quick test_stateful_never_merged;
    Alcotest.test_case "fed nodes kept" `Quick test_fed_nodes_not_folded;
    Alcotest.test_case "optimized run matches" `Quick
      test_session_optimized_run_matches;
    Alcotest.test_case "re-prune after optimize" `Quick
      test_reprune_after_optimize;
    Alcotest.test_case "is_pure" `Quick test_is_pure;
    Alcotest.test_case "bad fused expr not folded" `Quick
      test_bad_fused_expr_not_folded;
  ]
