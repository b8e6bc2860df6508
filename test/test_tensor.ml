open Octf_tensor

let approx = Alcotest.(check (float 1e-9))

let test_create_mismatch () =
  Alcotest.check_raises "length"
    (Invalid_argument "Tensor.create: buffer length 3 does not match [2x2]")
    (fun () ->
      ignore (Tensor.of_float_array [| 2; 2 |] [| 1.; 2.; 3. |]));
  Alcotest.check_raises "kind"
    (Invalid_argument "Tensor.create: buffer kind does not match dtype")
    (fun () ->
      ignore (Tensor.create Dtype.I32 [| 1 |] (Tensor.Float_buf [| 1.0 |])))

let test_zeros_ones_full () =
  let z = Tensor.zeros Dtype.F32 [| 2; 2 |] in
  approx "zeros" 0.0 (Tensor.get_f z [| 1; 1 |]);
  let o = Tensor.ones Dtype.I32 [| 3 |] in
  Alcotest.(check int) "ones" 1 (Tensor.get_i o [| 2 |]);
  let f = Tensor.full Dtype.F32 [| 2 |] 3.5 in
  approx "full" 3.5 (Tensor.flat_get_f f 1)

let test_scalars () =
  approx "scalar_f" 2.5 (Tensor.flat_get_f (Tensor.scalar_f 2.5) 0);
  Alcotest.(check int) "scalar_i" 7 (Tensor.flat_get_i (Tensor.scalar_i 7) 0);
  Alcotest.(check string) "scalar_s" "hi"
    (Tensor.get_s (Tensor.scalar_s "hi") [||]);
  Alcotest.(check bool) "scalar_b rank" true
    (Tensor.rank (Tensor.scalar_b true) = 0)

let test_reshape () =
  let t = Tensor.iota 12 in
  let r = Tensor.reshape t [| 3; 4 |] in
  Alcotest.(check int) "element" 7 (Tensor.get_i r [| 1; 3 |]);
  let inferred = Tensor.reshape t [| 2; -1 |] in
  Alcotest.(check (array int)) "inferred" [| 2; 6 |] (Tensor.shape inferred);
  Alcotest.check_raises "bad infer"
    (Invalid_argument "Tensor.reshape: cannot infer dimension") (fun () ->
      ignore (Tensor.reshape t [| 5; -1 |]))

let test_cast () =
  let f = Tensor.of_float_array [| 3 |] [| 1.7; -2.3; 0.0 |] in
  let i = Tensor.cast f Dtype.I32 in
  Alcotest.(check int) "truncate" 1 (Tensor.flat_get_i i 0);
  let b = Tensor.cast f Dtype.Bool in
  Alcotest.(check bool) "to bool" false (Tensor.bool_buffer b).(2);
  let back = Tensor.cast i Dtype.F32 in
  approx "back" 1.0 (Tensor.flat_get_f back 0)

let test_map2_broadcast () =
  let a = Tensor.of_float_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let row = Tensor.of_float_array [| 2 |] [| 10.; 20. |] in
  let sum = Tensor_ops.add a row in
  Alcotest.(check bool) "broadcast add" true
    (Tensor.approx_equal sum
       (Tensor.of_float_array [| 2; 2 |] [| 11.; 22.; 13.; 24. |]))

let test_map2_dtype_mismatch () =
  let f = Tensor.scalar_f 1.0 and i = Tensor.scalar_i 1 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Fused_eval.run: dtype mismatch float32 vs int32")
    (fun () -> ignore (Tensor_ops.add f i))

let test_copy_isolation () =
  let t = Tensor.of_float_array [| 2 |] [| 1.; 2. |] in
  let c = Tensor.copy t in
  Tensor.flat_set_f c 0 99.0;
  approx "original untouched" 1.0 (Tensor.flat_get_f t 0)

let test_init_f () =
  let t =
    Tensor.init_f [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 10) + idx.(1)))
  in
  approx "init value" 12.0 (Tensor.get_f t [| 1; 2 |])

let test_byte_size () =
  Alcotest.(check int) "f32" 24 (Tensor.byte_size (Tensor.zeros Dtype.F32 [| 6 |]));
  Alcotest.(check int) "i64" 48 (Tensor.byte_size (Tensor.zeros Dtype.I64 [| 6 |]))

let test_random_tensors () =
  let rng = Rng.create 3 in
  let u = Tensor.uniform rng [| 100 |] ~lo:(-1.0) ~hi:1.0 in
  Alcotest.(check bool) "in range" true
    (Tensor.fold_f (fun acc v -> acc && v >= -1.0 && v < 1.0) true u);
  let n = Tensor.normal rng [| 1000 |] ~mean:5.0 ~stddev:0.1 in
  let mean = Tensor.fold_f ( +. ) 0.0 n /. 1000.0 in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.0) < 0.05)

let prop_reshape_preserves =
  QCheck.Test.make ~name:"reshape preserves elements" ~count:100
    QCheck.(int_range 1 24)
    (fun n ->
      let t = Tensor.iota n in
      let r = Tensor.reshape (Tensor.reshape t [| n; 1 |]) [| n |] in
      Tensor.to_int_array r = Tensor.to_int_array t)

let prop_cast_roundtrip_int =
  QCheck.Test.make ~name:"int -> float -> int roundtrip" ~count:100
    QCheck.(small_list (int_range (-1000) 1000))
    (fun l ->
      l = []
      ||
      let a = Array.of_list l in
      let t = Tensor.of_int_array [| Array.length a |] a in
      Tensor.to_int_array (Tensor.cast (Tensor.cast t Dtype.F32) Dtype.I32) = a)

let suite =
  [
    Alcotest.test_case "create mismatch" `Quick test_create_mismatch;
    Alcotest.test_case "zeros/ones/full" `Quick test_zeros_ones_full;
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "reshape" `Quick test_reshape;
    Alcotest.test_case "cast" `Quick test_cast;
    Alcotest.test_case "map2 broadcast" `Quick test_map2_broadcast;
    Alcotest.test_case "map2 dtype mismatch" `Quick test_map2_dtype_mismatch;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
    Alcotest.test_case "init_f" `Quick test_init_f;
    Alcotest.test_case "byte size" `Quick test_byte_size;
    Alcotest.test_case "random tensors" `Quick test_random_tensors;
    QCheck_alcotest.to_alcotest prop_reshape_preserves;
    QCheck_alcotest.to_alcotest prop_cast_roundtrip_int;
  ]
