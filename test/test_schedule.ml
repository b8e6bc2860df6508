open Octf_tensor
open Octf
module B = Builder
module Vs = Octf_nn.Var_store
module Sch = Octf_train.Schedule
module Opt = Octf_train.Optimizer

let scalar t = Tensor.flat_get_f t 0

let with_schedule f =
  let b = B.create () in
  let store = Vs.create b in
  let rate = f store in
  let bump = Sch.increment store in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  let rate_at step =
    let current =
      int_of_float
        (scalar (List.hd (Session.run s [ (Sch.global_step store).Vs.read ])))
    in
    for _ = current + 1 to step do
      Session.run_unit s [ bump ]
    done;
    scalar (List.hd (Session.run s [ rate ]))
  in
  rate_at

let test_exponential_decay () =
  let rate_at =
    with_schedule (fun store ->
        Sch.exponential_decay store ~base:0.1 ~decay:0.5 ~decay_steps:10)
  in
  Alcotest.(check (float 1e-9)) "step 0" 0.1 (rate_at 0);
  Alcotest.(check (float 1e-9)) "step 10" 0.05 (rate_at 10);
  Alcotest.(check (float 1e-9)) "step 20" 0.025 (rate_at 20)

let test_inverse_time_decay () =
  let rate_at =
    with_schedule (fun store ->
        Sch.inverse_time_decay store ~base:1.0 ~decay:1.0 ~decay_steps:1)
  in
  Alcotest.(check (float 1e-9)) "step 0" 1.0 (rate_at 0);
  Alcotest.(check (float 1e-9)) "step 1" 0.5 (rate_at 1);
  Alcotest.(check (float 1e-9)) "step 3" 0.25 (rate_at 3)

let test_piecewise () =
  let rate_at =
    with_schedule (fun store ->
        Sch.piecewise store ~boundaries:[ (5, 0.01); (10, 0.001) ] ~default:0.1)
  in
  Alcotest.(check (float 1e-9)) "before first" 0.1 (rate_at 0);
  Alcotest.(check (float 1e-9)) "after first" 0.01 (rate_at 5);
  Alcotest.(check (float 1e-9)) "after second" 0.001 (rate_at 12)

let test_scheduled_minimize () =
  (* Training with a decayed rate: early steps move w more than late
     steps. *)
  let b = B.create () in
  let store = Vs.create b in
  let w = Vs.get store ~init:Octf_nn.Init.zeros ~name:"w" [||] in
  let loss = B.square b (B.sub b w.Vs.read (B.const_f b 100.0)) in
  let rate =
    Sch.exponential_decay store ~base:0.1 ~decay:0.1 ~decay_steps:1
  in
  let train = Opt.minimize_with_rate store ~lr_t:rate ~loss () in
  let step_ops = B.group b [ train; Sch.increment store ] in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  let w_at () = scalar (List.hd (Session.run s [ w.Vs.read ])) in
  Session.run_unit s [ step_ops ];
  let move1 = w_at () in
  Session.run_unit s [ step_ops ];
  let move2 = w_at () -. move1 in
  Alcotest.(check bool) "later step smaller" true (move2 < 0.2 *. move1)

let test_clip_by_global_norm () =
  let b = B.create () in
  let g1 = B.const b (Tensor.of_float_array [| 2 |] [| 3.0; 0.0 |]) in
  let g2 = B.const b (Tensor.of_float_array [| 1 |] [| 4.0 |]) in
  (* Joint norm 5; clip to 1 scales both by 1/5. *)
  let clipped = Opt.clip_by_global_norm b ~clip_norm:1.0 [ g1; g2 ] in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  (match Session.run s clipped with
  | [ c1; c2 ] ->
      Alcotest.(check (float 1e-6)) "g1 scaled" 0.6 (Tensor.flat_get_f c1 0);
      Alcotest.(check (float 1e-6)) "g2 scaled" 0.8 (Tensor.flat_get_f c2 0)
  | _ -> Alcotest.fail "arity");
  (* Under the bound: untouched. *)
  let untouched = Opt.clip_by_global_norm b ~clip_norm:100.0 [ g1 ] in
  match Session.run s untouched with
  | [ c ] -> Alcotest.(check (float 1e-6)) "unclipped" 3.0 (Tensor.flat_get_f c 0)
  | _ -> Alcotest.fail "arity"

let suite =
  [
    Alcotest.test_case "exponential decay" `Quick test_exponential_decay;
    Alcotest.test_case "inverse time decay" `Quick test_inverse_time_decay;
    Alcotest.test_case "piecewise" `Quick test_piecewise;
    Alcotest.test_case "scheduled minimize" `Quick test_scheduled_minimize;
    Alcotest.test_case "clip by global norm" `Quick test_clip_by_global_norm;
  ]
