(* Optimizers as user-level graph code (§4.1): one-step closed-form
   checks and convergence checks for every algorithm, plus the sparse
   (ScatterSub) path of §4.2. *)

open Octf_tensor
open Octf
module B = Builder
module Vs = Octf_nn.Var_store
module Opt = Octf_train.Optimizer

let scalar t = Tensor.flat_get_f t 0

(* A one-variable quadratic: loss = (w - 5)^2, dloss/dw = 2(w - 5). *)
let quadratic () =
  let b = B.create () in
  let store = Vs.create b in
  let w = Vs.get store ~init:(Octf_nn.Init.constant 1.0) ~name:"w" [||] in
  let loss = B.square b (B.sub b w.Vs.read (B.const_f b 5.0)) in
  (b, store, w, loss)

let run_steps ?(algorithm = Opt.Sgd) ~lr ~steps () =
  let b, store, w, loss = quadratic () in
  let train = Opt.minimize store ~algorithm ~lr ~loss () in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  for _ = 1 to steps do
    Session.run_unit s [ train ]
  done;
  scalar (List.hd (Session.run s [ w.Vs.read ]))

let test_sgd_one_step () =
  (* w1 = w0 - lr * 2(w0 - 5) = 1 - 0.1 * (-8) = 1.8 *)
  Alcotest.(check (float 1e-6)) "closed form" 1.8
    (run_steps ~lr:0.1 ~steps:1 ())

let test_momentum_two_steps () =
  (* v1 = g1 = -8; w1 = 1 + 0.8 = 1.8
     g2 = 2(1.8 - 5) = -6.4; v2 = 0.9*(-8) + (-6.4) = -13.6
     w2 = 1.8 + 1.36 = 3.16 *)
  Alcotest.(check (float 1e-5)) "momentum closed form" 3.16
    (run_steps ~algorithm:(Opt.Momentum { momentum = 0.9 }) ~lr:0.1 ~steps:2 ())

let test_adagrad_one_step () =
  (* acc = g^2 = 64; w1 = 1 - lr * g / (sqrt 64 + eps) ~ 1 + 0.1 = 1.1 *)
  Alcotest.(check (float 1e-4)) "adagrad closed form" 1.1
    (run_steps ~algorithm:(Opt.Adagrad { epsilon = 1e-8 }) ~lr:0.1 ~steps:1 ())

let test_adam_one_step () =
  (* With bias correction, the first Adam step is ~ lr * sign(g). *)
  Alcotest.(check (float 1e-3)) "adam first step" 1.1
    (run_steps ~algorithm:Opt.adam_default ~lr:0.1 ~steps:1 ())

let convergence name algorithm lr =
  Alcotest.test_case (name ^ " converges") `Quick (fun () ->
      let w = run_steps ~algorithm ~lr ~steps:300 () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: w=%f near 5" name w)
        true
        (Float.abs (w -. 5.0) < 0.2))

let test_clip_norm () =
  (* With clip 1.0 the first step moves by exactly lr. *)
  let b, store, w, loss = quadratic () in
  let train = Opt.minimize store ~clip_norm:1.0 ~lr:0.5 ~loss () in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  Session.run_unit s [ train ];
  Alcotest.(check (float 1e-5)) "clipped step" 1.5
    (scalar (List.hd (Session.run s [ w.Vs.read ])))

let test_var_list_restricts () =
  let b = B.create () in
  let store = Vs.create b in
  let w1 = Vs.get store ~init:(Octf_nn.Init.constant 1.0) ~name:"w1" [||] in
  let w2 = Vs.get store ~init:(Octf_nn.Init.constant 1.0) ~name:"w2" [||] in
  let loss =
    B.add b (B.square b w1.Vs.read) (B.square b w2.Vs.read)
  in
  let train = Opt.minimize store ~var_list:[ w1 ] ~lr:0.1 ~loss () in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  Session.run_unit s [ train ];
  let vs = Session.run s [ w1.Vs.read; w2.Vs.read ] in
  Alcotest.(check bool) "w1 moved" true (scalar (List.hd vs) <> 1.0);
  Alcotest.(check (float 0.)) "w2 frozen" 1.0 (scalar (List.nth vs 1))

let test_sparse_sgd_scatter () =
  (* Embedding row updates touch only gathered rows (§4.2). *)
  let b = B.create () in
  let store = Vs.create b in
  let table =
    Vs.get store ~init:(Octf_nn.Init.constant 1.0) ~name:"emb" [| 5; 2 |]
  in
  let ids = B.const b (Tensor.of_int_array [| 2 |] [| 1; 3 |]) in
  let rows = B.gather b table.Vs.read ids in
  let loss = B.reduce_sum b rows in
  let train = Opt.minimize store ~lr:0.5 ~loss () in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  Session.run_unit s [ train ];
  let t = List.hd (Session.run s [ table.Vs.read ]) in
  Alcotest.(check (float 1e-6)) "row 1 updated" 0.5 (Tensor.get_f t [| 1; 0 |]);
  Alcotest.(check (float 1e-6)) "row 3 updated" 0.5 (Tensor.get_f t [| 3; 0 |]);
  Alcotest.(check (float 1e-6)) "row 0 untouched" 1.0
    (Tensor.get_f t [| 0; 0 |]);
  (* And the update subgraph really is a ScatterSub, not a dense write. *)
  let has_scatter = ref false in
  Graph.iter (B.graph b) (fun n ->
      if n.Node.op_type = "ScatterSub" then has_scatter := true);
  Alcotest.(check bool) "uses ScatterSub" true !has_scatter

let test_slots_on_variable_device () =
  (* On a two-ps-task cluster, every slot lands where its variable does,
     for every algorithm, whatever the load balancer would pick. *)
  let cluster =
    Cluster.create
      ~jobs:[ ("ps", 2, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ]
  in
  List.iter
    (fun algorithm ->
      let b = B.create () in
      let store = Vs.create b in
      let emb =
        Vs.get store ~device:"/job:ps/task:0" ~name:"emb" [| 6; 2 |]
      in
      let w = Vs.get store ~device:"/job:ps/task:1" ~name:"w" [| 2; 2 |] in
      let loss =
        B.with_device b "/job:worker/task:0" (fun () ->
            let ids = B.const b (Tensor.of_int_array [| 3 |] [| 1; 4; 1 |]) in
            B.reduce_sum b
              (B.square b (B.matmul b (B.gather b emb.Vs.read ids) w.Vs.read)))
      in
      ignore (Opt.minimize store ~algorithm ~clip_norm:1.0 ~lr:0.1 ~loss ());
      let g = B.graph b in
      Placement.place g
        ~nodes:(List.init (Graph.node_count g) Fun.id)
        ~devices:(Cluster.devices cluster);
      let device (v : Vs.variable) =
        Device.to_string (Option.get v.Vs.handle.B.node.Node.assigned_device)
      in
      List.iter
        (fun (v : Vs.variable) ->
          let owner = if String.starts_with ~prefix:"emb/" v.Vs.name then emb else w in
          Alcotest.(check string) v.Vs.name (device owner) (device v))
        (List.filter (fun (v : Vs.variable) -> not v.Vs.trainable) (Vs.all store)))
    Opt.[ Sgd; momentum_default; adagrad_default; rmsprop_default;
          adadelta_default; adam_default ]

let test_no_trainables_rejected () =
  let b = B.create () in
  let store = Vs.create b in
  let loss = B.const_f b 1.0 in
  match Opt.minimize store ~lr:0.1 ~loss () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "sgd one step" `Quick test_sgd_one_step;
    Alcotest.test_case "momentum two steps" `Quick test_momentum_two_steps;
    Alcotest.test_case "adagrad one step" `Quick test_adagrad_one_step;
    Alcotest.test_case "adam first step" `Quick test_adam_one_step;
    convergence "sgd" Opt.Sgd 0.1;
    convergence "momentum" Opt.momentum_default 0.02;
    convergence "adagrad" Opt.adagrad_default 2.0;
    convergence "rmsprop" Opt.rmsprop_default 0.1;
    convergence "adadelta" Opt.adadelta_default 100.0;
    convergence "adam" Opt.adam_default 0.3;
    Alcotest.test_case "clip norm" `Quick test_clip_norm;
    Alcotest.test_case "var_list restricts" `Quick test_var_list_restricts;
    Alcotest.test_case "sparse sgd scatter" `Quick test_sparse_sgd_scatter;
    Alcotest.test_case "slots on their variable's device" `Quick
      test_slots_on_variable_device;
    Alcotest.test_case "no trainables" `Quick test_no_trainables_rejected;
  ]
