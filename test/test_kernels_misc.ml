(* Coverage for kernels not exercised elsewhere: EnqueueMany/DequeueMany
   through the builder, ScatterUpdate, CountUp, Fill, comparison
   broadcasting, RangeLike/RandomIndices, Identity on resources, and the
   dtype checks of the pooling kernels. *)

open Octf_tensor
open Octf
module B = Builder

let scalar t = Tensor.flat_get_f t 0

let test_enqueue_many_slices_rows () =
  let b = B.create () in
  let q = B.fifo_queue b ~capacity:8 ~num_components:1 () in
  let batch =
    B.const b (Tensor.of_float_array [| 3; 2 |] [| 1.; 2.; 3.; 4.; 5.; 6. |])
  in
  let enq = B.enqueue_many b q [ batch ] in
  let deq = List.hd (B.dequeue b q ~num_components:1) in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ enq ];
  let first = List.hd (Session.run s [ deq ]) in
  Alcotest.(check (array int)) "row shape" [| 2 |] (Tensor.shape first);
  Alcotest.(check (float 0.)) "first row" 2.0 (Tensor.get_f first [| 1 |]);
  let second = List.hd (Session.run s [ deq ]) in
  Alcotest.(check (float 0.)) "second row" 3.0 (Tensor.get_f second [| 0 |])

let test_dequeue_many_batches () =
  let b = B.create () in
  let q = B.fifo_queue b ~capacity:8 ~num_components:1 () in
  let x = B.placeholder b Dtype.F32 in
  let enq = B.enqueue b q [ x ] in
  let batched = List.hd (B.dequeue_many b q ~n:2 ~num_components:1) in
  let s = Session.create (B.graph b) in
  Session.run_unit ~feeds:[ (x, Tensor.scalar_f 1.0) ] s [ enq ];
  Session.run_unit ~feeds:[ (x, Tensor.scalar_f 2.0) ] s [ enq ];
  let v = List.hd (Session.run s [ batched ]) in
  Alcotest.(check (array int)) "batched" [| 2 |] (Tensor.shape v)

let test_scatter_update_replaces () =
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[| 3; 2 |] () in
  let init = B.assign b v (B.const b (Tensor.ones Dtype.F32 [| 3; 2 |])) in
  let upd =
    B.scatter_update b v
      (B.const b (Tensor.of_int_array [| 1 |] [| 1 |]))
      (B.const b (Tensor.of_float_array [| 1; 2 |] [| 7.; 8. |]))
  in
  let r = B.read b v in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  Session.run_unit s [ upd ];
  let value = List.hd (Session.run s [ r ]) in
  Alcotest.(check (float 0.)) "replaced" 8.0 (Tensor.get_f value [| 1; 1 |]);
  Alcotest.(check (float 0.)) "others kept" 1.0 (Tensor.get_f value [| 0; 0 |])

let test_count_up_is_atomic_fetch_add () =
  let b = B.create () in
  let v = B.variable b ~name:"c" ~dtype:Dtype.F32 ~shape:[||] () in
  let init = B.assign b v (B.const_f b 0.0) in
  let tick = B.count_up b v in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  let old1 = scalar (List.hd (Session.run s [ tick ])) in
  let old2 = scalar (List.hd (Session.run s [ tick ])) in
  Alcotest.(check (float 0.)) "first returns pre-increment" 0.0 old1;
  Alcotest.(check (float 0.)) "second sees bump" 1.0 old2

let test_fill_and_likes () =
  let b = B.create () in
  let f = B.fill b [| 2; 2 |] 0.5 in
  let z = B.zeros_like b f in
  let o = B.ones_like b f in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ f; z; o ] with
  | [ fv; zv; ov ] ->
      Alcotest.(check (float 0.)) "fill" 0.5 (Tensor.get_f fv [| 1; 1 |]);
      Alcotest.(check (float 0.)) "zeros_like" 0.0 (Tensor.get_f zv [| 0; 1 |]);
      Alcotest.(check (float 0.)) "ones_like" 1.0 (Tensor.get_f ov [| 1; 0 |])
  | _ -> Alcotest.fail "arity"

let test_range_like_and_random_indices () =
  let b = B.create () in
  let x = B.const b (Tensor.zeros Dtype.F32 [| 5 |]) in
  let r = B.range_like b x in
  let sampled = B.random_indices b ~n:20 ~range:7 () in
  let s = Session.create (B.graph b) in
  (match Session.run s [ r ] with
  | [ v ] ->
      Alcotest.(check (array int)) "iota" [| 0; 1; 2; 3; 4 |]
        (Tensor.to_int_array v)
  | _ -> Alcotest.fail "arity");
  match Session.run s [ sampled ] with
  | [ v ] ->
      Array.iter
        (fun i -> if i < 0 || i >= 7 then Alcotest.fail "sample out of range")
        (Tensor.to_int_array v)
  | _ -> Alcotest.fail "arity"

let test_comparison_broadcast () =
  let b = B.create () in
  let m =
    B.const b (Tensor.of_float_array [| 2; 2 |] [| 1.; 5.; 3.; 2. |])
  in
  let thresh = B.const_f b 2.5 in
  let mask = B.cast b (B.greater b m thresh) Dtype.F32 in
  let count = B.reduce_sum b mask in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  Alcotest.(check (float 0.)) "two above threshold" 2.0
    (scalar (List.hd (Session.run s [ count ])))

let test_identity_forwards_resource () =
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[||] () in
  let alias = B.identity b v in
  let init = B.assign b alias (B.const_f b 3.0) in
  let r = B.read b alias in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  Session.run_unit s [ init ];
  Alcotest.(check (float 0.)) "assigned through alias" 3.0
    (scalar (List.hd (Session.run s [ r ])))

let test_addn_variadic () =
  let b = B.create () in
  let xs = List.init 7 (fun i -> B.const_f b (float_of_int i)) in
  let sum = B.add_n b xs in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  Alcotest.(check (float 0.)) "0+..+6" 21.0
    (scalar (List.hd (Session.run s [ sum ])))

let test_queue_size_op () =
  let b = B.create () in
  let q = B.fifo_queue b ~capacity:4 ~num_components:1 () in
  let x = B.placeholder b Dtype.F32 in
  let enq = B.enqueue b q [ x ] in
  let size = B.queue_size b q in
  let s = Session.create (B.graph b) in
  Alcotest.(check int) "empty" 0
    (Tensor.flat_get_i (List.hd (Session.run s [ size ])) 0);
  Session.run_unit ~feeds:[ (x, Tensor.scalar_f 1.0) ] s [ enq ];
  Session.run_unit ~feeds:[ (x, Tensor.scalar_f 2.0) ] s [ enq ];
  Alcotest.(check int) "two" 2
    (Tensor.flat_get_i (List.hd (Session.run s [ size ])) 0)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A pooling op given an operand of a dtype it does not take fails the
   step with [Invalid_graph] naming the op and the dtype. [inputs] are
   (dtype, value) pairs fed through placeholders, so no pass folds the
   op away. *)
let expect_pool_rejects op_type inputs ~dtype =
  let b = B.create () in
  let feeds =
    List.map (fun (dt, v) -> (B.placeholder b dt, v)) inputs
  in
  let out =
    B.output
      (B.op b ~op_type
         ~attrs:
           [
             ("ksize", Attr.Ints [ 2; 2 ]);
             ("strides", Attr.Ints [ 2; 2 ]);
             ("padding", Attr.String "VALID");
           ]
         (List.map fst feeds))
  in
  let s = Session.create (B.graph b) in
  match Session.run ~feeds s [ out ] with
  | exception Session.Run_error { cause = Step_failure.Invalid_graph m; _ } ->
      if not (contains m op_type && contains m (Dtype.to_string dtype)) then
        Alcotest.failf "%s: message %S names neither op nor dtype" op_type m
  | exception e ->
      Alcotest.failf "%s: unstructured failure %s" op_type (Printexc.to_string e)
  | _ -> Alcotest.failf "%s accepted a %s operand" op_type (Dtype.to_string dtype)

let floats = (Dtype.F32, Tensor.ones Dtype.F32 [| 1; 2; 2; 1 |])
let ints = (Dtype.I32, Tensor.of_int_array [| 1; 2; 2; 1 |] [| 1; 2; 3; 4 |])
let codes = (Dtype.U8, Tensor.of_bytes [| 1; 2; 2; 1 |] (Bytes.make 4 'a'))
let grad = (Dtype.F32, Tensor.ones Dtype.F32 [| 1; 1; 1; 1 |])
let int_grad = (Dtype.I32, Tensor.of_int_array [| 1; 1; 1; 1 |] [| 1 |])

let test_max_pool_rejects () =
  expect_pool_rejects "MaxPool" [ ints ] ~dtype:Dtype.I32

let test_avg_pool_rejects () =
  expect_pool_rejects "AvgPool" [ ints ] ~dtype:Dtype.I32;
  expect_pool_rejects "AvgPool" [ codes ] ~dtype:Dtype.U8

let test_max_pool_grad_rejects () =
  expect_pool_rejects "MaxPoolGrad" [ codes; grad ] ~dtype:Dtype.U8;
  expect_pool_rejects "MaxPoolGrad" [ floats; int_grad ] ~dtype:Dtype.I32

let test_avg_pool_grad_rejects () =
  expect_pool_rejects "AvgPoolGrad" [ ints; grad ] ~dtype:Dtype.I32;
  expect_pool_rejects "AvgPoolGrad" [ floats; int_grad ] ~dtype:Dtype.I32

let suite =
  [
    Alcotest.test_case "enqueue_many" `Quick test_enqueue_many_slices_rows;
    Alcotest.test_case "dequeue_many" `Quick test_dequeue_many_batches;
    Alcotest.test_case "scatter_update" `Quick test_scatter_update_replaces;
    Alcotest.test_case "count_up" `Quick test_count_up_is_atomic_fetch_add;
    Alcotest.test_case "fill/likes" `Quick test_fill_and_likes;
    Alcotest.test_case "range_like/random_indices" `Quick
      test_range_like_and_random_indices;
    Alcotest.test_case "comparison broadcast" `Quick test_comparison_broadcast;
    Alcotest.test_case "identity forwards resource" `Quick
      test_identity_forwards_resource;
    Alcotest.test_case "add_n variadic" `Quick test_addn_variadic;
    Alcotest.test_case "queue_size" `Quick test_queue_size_op;
    Alcotest.test_case "MaxPool rejects non-float" `Quick test_max_pool_rejects;
    Alcotest.test_case "AvgPool rejects non-float" `Quick test_avg_pool_rejects;
    Alcotest.test_case "MaxPoolGrad rejects non-float" `Quick
      test_max_pool_grad_rejects;
    Alcotest.test_case "AvgPoolGrad rejects non-float" `Quick
      test_avg_pool_grad_rejects;
  ]
