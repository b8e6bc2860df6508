(* Intra-op parallelism: sharder unit tests, bit-identity across thread
   budgets, golden-value checks against naive reference kernels, and the
   elementwise bugfix regressions (floor-mod, select). *)

open Octf_tensor
module O = Tensor_ops

let with_threads n f =
  let saved = Parallel.threads () in
  Parallel.set_threads n;
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) f

(* Run [f] under each thread budget and assert the results are
   bit-identical ([Tensor.equal] is exact element equality). *)
let check_bit_identical msg f =
  let reference = with_threads 1 f in
  List.iter
    (fun t ->
      let r = with_threads t f in
      if not (Tensor.equal reference r) then
        Alcotest.failf "%s: %d-thread result differs from serial" msg t)
    [ 2; 4 ]

let check_t ?(tol = 1e-6) msg expected actual =
  if not (Tensor.approx_equal ~tol expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

(* ------------------------------------------------------------------ *)
(* Parallel_for sharder                                                *)
(* ------------------------------------------------------------------ *)

let test_parallel_for_coverage () =
  with_threads 4 @@ fun () ->
  (* Sizes straddling chunk boundaries: every index must be written
     exactly once. *)
  List.iter
    (fun n ->
      let hits = Array.make n 0 in
      Parallel.parallel_for ~grain:256 n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Array.iteri
        (fun i c ->
          if c <> 1 then Alcotest.failf "n=%d: index %d written %d times" n i c)
        hits)
    [ 1; 255; 256; 257; 1023; 1024; 1025; 4099 ]

exception Boom

let test_parallel_for_exception () =
  with_threads 4 @@ fun () ->
  let raised =
    try
      Parallel.parallel_for ~grain:64 1024 (fun lo _ ->
          if lo >= 512 then raise Boom);
      false
    with Boom -> true
  in
  Alcotest.(check bool) "body exception reaches the caller" true raised

let test_parallel_for_nested () =
  with_threads 4 @@ fun () ->
  (* A nested parallel_for must run serially (no deadlock, no double
     budget) and still cover its range. *)
  let n = 2048 in
  let out = Array.make n 0.0 in
  Parallel.parallel_for ~grain:256 n (fun lo hi ->
      Parallel.parallel_for ~grain:1 (hi - lo) (fun ilo ihi ->
          for i = ilo to ihi - 1 do
            out.(lo + i) <- float_of_int (lo + i)
          done));
  Array.iteri
    (fun i v ->
      if v <> float_of_int i then Alcotest.failf "nested: index %d = %f" i v)
    out

(* ------------------------------------------------------------------ *)
(* Bit-identity across thread budgets                                  *)
(* ------------------------------------------------------------------ *)

let rand_t seed shape =
  let rng = Rng.create seed in
  Tensor.uniform rng shape ~lo:(-1.0) ~hi:1.0

let test_matmul_determinism () =
  (* Non-square, large enough that 4 threads really shard the rows. *)
  let a = rand_t 3 [| 200; 40 |] and b = rand_t 4 [| 40; 30 |] in
  let at = rand_t 5 [| 40; 200 |] and bt = rand_t 6 [| 30; 40 |] in
  check_bit_identical "matmul" (fun () -> O.matmul a b);
  check_bit_identical "matmul T_a" (fun () -> O.matmul ~transpose_a:true at b);
  check_bit_identical "matmul T_b" (fun () -> O.matmul ~transpose_b:true a bt);
  check_bit_identical "matmul T_ab" (fun () ->
      O.matmul ~transpose_a:true ~transpose_b:true at bt);
  (* Odd m and n mod 4 <> 0 reach every tile; an A that is 80% zeros
     takes the kernel's sparse loop, the same A with one NaN in B the
     dense one. *)
  let sparse seed shape =
    let rng = Rng.create seed in
    Tensor.init_f shape (fun _ ->
        if Rng.float rng 1.0 < 0.8 then 0.0
        else Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
  in
  let sa = sparse 24 [| 301; 40 |] and sat = sparse 25 [| 40; 301 |] in
  let b = rand_t 26 [| 40; 31 |] in
  let b_nan = Tensor.copy b in
  Tensor.flat_set_f b_nan 7 Float.nan;
  check_bit_identical "matmul sparse A" (fun () -> O.matmul sa b);
  check_bit_identical "matmul sparse A^T" (fun () ->
      O.matmul ~transpose_a:true sat b);
  let da = rand_t 27 [| 301; 40 |] in
  check_bit_identical "matmul dense A, odd m" (fun () -> O.matmul da b);
  (* B[0,7] = NaN: 0 * NaN is NaN, so column 7 is NaN in every row and
     no other entry is, at every thread budget. *)
  List.iter
    (fun t ->
      let r = with_threads t (fun () -> O.matmul sa b_nan) in
      for i = 0 to 300 do
        for j = 0 to 30 do
          if Float.is_nan (Tensor.get_f r [| i; j |]) <> (j = 7) then
            Alcotest.failf "%d threads: NaN placement wrong at (%d, %d)" t i j
        done
      done)
    [ 1; 2; 4 ]

let test_conv2d_determinism () =
  let img = rand_t 7 [| 4; 16; 16; 4 |] in
  let filt = rand_t 8 [| 3; 3; 4; 8 |] in
  List.iter
    (fun (name, padding) ->
      check_bit_identical ("conv2d " ^ name) (fun () ->
          O.conv2d img filt ~strides:(1, 1) ~padding);
      let dy =
        with_threads 1 (fun () -> O.conv2d img filt ~strides:(1, 1) ~padding)
      in
      check_bit_identical ("conv2d_grad_input " ^ name) (fun () ->
          O.conv2d_grad_input ~input_shape:(Tensor.shape img) filt dy
            ~strides:(1, 1) ~padding);
      check_bit_identical ("conv2d_grad_filter " ^ name) (fun () ->
          O.conv2d_grad_filter ~filter_shape:(Tensor.shape filt) img dy
            ~strides:(1, 1) ~padding);
      (* A mostly-zero dy, as after ReluGrad, takes the sparse loop. *)
      let dy_sparse = O.relu (O.sub dy (Tensor.scalar_f 1.0)) in
      check_bit_identical ("conv2d_grad_input sparse dy " ^ name) (fun () ->
          O.conv2d_grad_input ~input_shape:(Tensor.shape img) filt dy_sparse
            ~strides:(1, 1) ~padding))
    [ ("same", O.Same); ("valid", O.Valid) ]

let test_elementwise_determinism () =
  let x = rand_t 9 [| 20000 |] and y = rand_t 10 [| 20000 |] in
  check_bit_identical "map" (fun () -> O.sigmoid x);
  check_bit_identical "map2 same shape" (fun () -> O.add x y);
  let m = rand_t 11 [| 150; 80 |] and row = rand_t 12 [| 80 |] in
  check_bit_identical "map2 broadcast" (fun () -> O.mul m row);
  check_bit_identical "map2 scalar" (fun () -> O.mul (Tensor.scalar_f 0.5) m);
  check_bit_identical "select broadcast" (fun () ->
      O.select (O.greater m row) m row);
  check_bit_identical "transpose" (fun () -> O.transpose m);
  check_bit_identical "broadcast_to" (fun () ->
      O.broadcast_to row [| 150; 80 |])

let test_reduction_determinism () =
  let m = rand_t 13 [| 300; 100 |] in
  check_bit_identical "reduce_sum rows" (fun () -> O.reduce_sum ~axes:[ 1 ] m);
  check_bit_identical "reduce_sum cols" (fun () -> O.reduce_sum ~axes:[ 0 ] m);
  check_bit_identical "reduce_sum all" (fun () -> O.reduce_sum m);
  check_bit_identical "reduce_mean keep_dims" (fun () ->
      O.reduce_mean ~axes:[ 0 ] ~keep_dims:true m);
  check_bit_identical "reduce_max" (fun () -> O.reduce_max ~axes:[ 1 ] m);
  let c = rand_t 14 [| 12; 25; 40 |] in
  check_bit_identical "reduce middle axis" (fun () ->
      O.reduce_sum ~axes:[ 1 ] c);
  check_bit_identical "reduce two axes" (fun () ->
      O.reduce_sum ~axes:[ 0; 2 ] c)

let test_softmax_determinism () =
  let logits = rand_t 15 [| 300; 50 |] in
  let labels = with_threads 1 (fun () -> O.softmax (rand_t 16 [| 300; 50 |])) in
  check_bit_identical "softmax" (fun () -> O.softmax logits);
  check_bit_identical "log_softmax" (fun () -> O.log_softmax logits);
  check_bit_identical "softmax_cross_entropy" (fun () ->
      O.softmax_cross_entropy ~logits ~labels)

(* ------------------------------------------------------------------ *)
(* Golden values: parallel kernels vs naive references                 *)
(* ------------------------------------------------------------------ *)

let test_matmul_golden () =
  let m = 37 and k = 23 and n = 19 in
  let a = rand_t 17 [| m; k |] and b = rand_t 18 [| k; n |] in
  let da = Tensor.float_buffer a and db = Tensor.float_buffer b in
  let expect =
    Tensor.init_f [| m; n |] (fun idx ->
        let acc = ref 0.0 in
        for p = 0 to k - 1 do
          acc := !acc +. (da.((idx.(0) * k) + p) *. db.((p * n) + idx.(1)))
        done;
        !acc)
  in
  with_threads 4 @@ fun () ->
  check_t "matmul" expect (O.matmul a b);
  (* The stride-swapped transposed variants must agree with the plain
     product of the same logical matrices. *)
  let at = O.transpose a and bt = O.transpose b in
  check_t "matmul T_a" expect (O.matmul ~transpose_a:true at b);
  check_t "matmul T_b" expect (O.matmul ~transpose_b:true a bt);
  check_t "matmul T_ab" expect
    (O.matmul ~transpose_a:true ~transpose_b:true at bt)

let test_conv2d_golden () =
  (* Naive direct convolution, SAME padding, stride 1. *)
  let batch = 2 and size = 8 and ic = 3 and oc = 5 in
  let img = rand_t 19 [| batch; size; size; ic |] in
  let filt = rand_t 20 [| 3; 3; ic; oc |] in
  let expect =
    Tensor.init_f [| batch; size; size; oc |] (fun idx ->
        let b = idx.(0) and y = idx.(1) and x = idx.(2) and o = idx.(3) in
        let acc = ref 0.0 in
        for ky = 0 to 2 do
          for kx = 0 to 2 do
            let sy = y + ky - 1 and sx = x + kx - 1 in
            if sy >= 0 && sy < size && sx >= 0 && sx < size then
              for c = 0 to ic - 1 do
                acc :=
                  !acc
                  +. Tensor.get_f img [| b; sy; sx; c |]
                     *. Tensor.get_f filt [| ky; kx; c; o |]
              done
          done
        done;
        !acc)
  in
  with_threads 4 @@ fun () ->
  check_t ~tol:1e-5 "conv2d SAME golden" expect
    (O.conv2d img filt ~strides:(1, 1) ~padding:O.Same)

let test_reduction_golden () =
  let m = rand_t 21 [| 40; 30 |] in
  let dm = Tensor.float_buffer m in
  let row_sums =
    Tensor.init_f [| 40 |] (fun idx ->
        let acc = ref 0.0 in
        for j = 0 to 29 do
          acc := !acc +. dm.((idx.(0) * 30) + j)
        done;
        !acc)
  in
  with_threads 4 @@ fun () ->
  check_t ~tol:1e-5 "row sums" row_sums (O.reduce_sum ~axes:[ 1 ] m);
  check_t ~tol:1e-5 "row means"
    (O.div row_sums (Tensor.scalar_f 30.0))
    (O.reduce_mean ~axes:[ 1 ] m)

(* ------------------------------------------------------------------ *)
(* Bugfix regressions: floor-mod and select                            *)
(* ------------------------------------------------------------------ *)

let test_modulo_floor_semantics () =
  let check a b expected =
    let r = O.modulo (Tensor.scalar_f a) (Tensor.scalar_f b) in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "%g mod %g" a b)
      expected (Tensor.flat_get_f r 0)
  in
  (* TF FloorMod: result takes the divisor's sign. *)
  check 7.5 2.0 1.5;
  check (-7.5) 2.0 0.5;
  check 7.5 (-2.0) (-0.5);
  check (-7.5) (-2.0) (-1.5);
  (* Fractional divisor — the old int-truncating kernel divided by
     zero here (int_of_float 0.25 = 0). *)
  check 0.7 0.25 0.2;
  (* Large magnitudes that overflow naive int conversion paths. *)
  check 1e17 3.0 (Float.rem 1e17 3.0);
  (* Integer dtype keeps floor-mod semantics. *)
  let ri =
    O.modulo
      (Tensor.of_int_array [| 4 |] [| -7; 7; -7; 7 |])
      (Tensor.of_int_array [| 4 |] [| 3; -3; -3; 3 |])
  in
  Alcotest.(check (array int))
    "int floor-mod" [| 2; -2; -1; 1 |] (Tensor.to_int_array ri)

let test_select_broadcast () =
  (* Scalar condition broadcast over both branches. *)
  let a = Tensor.of_float_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let b = Tensor.of_float_array [| 2; 2 |] [| 9.; 8.; 7.; 6. |] in
  check_t "scalar cond true" a (O.select (Tensor.scalar_b true) a b);
  check_t "scalar cond false" b (O.select (Tensor.scalar_b false) a b);
  (* Row-broadcast condition. *)
  let cond = Tensor.of_bool_array [| 2 |] [| true; false |] in
  check_t "row cond"
    (Tensor.of_float_array [| 2; 2 |] [| 1.; 8.; 3.; 6. |])
    (O.select cond a b);
  (* Branch broadcasting: scalar branches against a full condition. *)
  let m = Tensor.of_bool_array [| 2; 2 |] [| true; false; false; true |] in
  check_t "scalar branches"
    (Tensor.of_float_array [| 2; 2 |] [| 1.; 0.; 0.; 1. |])
    (O.select m (Tensor.scalar_f 1.0) (Tensor.scalar_f 0.0));
  (* Integer payload keeps its dtype (the old kernel cast cond through
     the value dtype and materialized three temporaries). *)
  let ia = Tensor.of_int_array [| 2 |] [| 10; 20 |] in
  let ib = Tensor.of_int_array [| 2 |] [| 30; 40 |] in
  let r = O.select (Tensor.of_bool_array [| 2 |] [| false; true |]) ia ib in
  Alcotest.(check (array int)) "int select" [| 30; 20 |] (Tensor.to_int_array r);
  Alcotest.(check bool) "int dtype preserved" true
    (Tensor.dtype r = Tensor.dtype ia)

(* ------------------------------------------------------------------ *)
(* Observability: shard counters and per-node stats                    *)
(* ------------------------------------------------------------------ *)

let test_shard_metrics_and_step_stats () =
  with_threads 4 @@ fun () ->
  let before =
    Option.value ~default:0.0
      (Octf.Metrics.find_value Octf.Metrics.default
         "octf_intra_op_shards_total")
  in
  let module B = Octf.Builder in
  let b = B.create () in
  let x = B.const b (rand_t 22 [| 200; 64 |]) in
  let w = B.const b (rand_t 23 [| 64; 48 |]) in
  let y = B.reduce_sum b (B.matmul b x w) in
  let session =
    Octf.Session.create
      ~config:(Octf.Session.Config.v ~passes:[] ())
      (B.graph b)
  in
  let options = Octf.Session.Run_options.v ~collect_stats:true () in
  let _, md = Octf.Session.run_with_metadata ~options session [ y ] in
  let after =
    Option.value ~default:0.0
      (Octf.Metrics.find_value Octf.Metrics.default
         "octf_intra_op_shards_total")
  in
  Alcotest.(check bool) "shard counter advanced" true (after > before);
  let stats = Option.get md.Octf.Session.Run_metadata.step_stats in
  let mm =
    List.find
      (fun n -> n.Octf.Step_stats.op_type = "MatMul")
      stats.Octf.Step_stats.nodes
  in
  Alcotest.(check bool) "matmul node recorded shards" true
    (mm.Octf.Step_stats.shards > 0)

let suite =
  [
    Alcotest.test_case "parallel_for coverage" `Quick
      test_parallel_for_coverage;
    Alcotest.test_case "parallel_for exception" `Quick
      test_parallel_for_exception;
    Alcotest.test_case "parallel_for nested" `Quick test_parallel_for_nested;
    Alcotest.test_case "matmul bit-identical" `Quick test_matmul_determinism;
    Alcotest.test_case "conv2d bit-identical" `Quick test_conv2d_determinism;
    Alcotest.test_case "elementwise bit-identical" `Quick
      test_elementwise_determinism;
    Alcotest.test_case "reductions bit-identical" `Quick
      test_reduction_determinism;
    Alcotest.test_case "softmax bit-identical" `Quick
      test_softmax_determinism;
    Alcotest.test_case "matmul golden" `Quick test_matmul_golden;
    Alcotest.test_case "conv2d golden" `Quick test_conv2d_golden;
    Alcotest.test_case "reductions golden" `Quick test_reduction_golden;
    Alcotest.test_case "floor-mod semantics" `Quick
      test_modulo_floor_semantics;
    Alcotest.test_case "select broadcast" `Quick test_select_broadcast;
    Alcotest.test_case "shard metrics and step stats" `Quick
      test_shard_metrics_and_step_stats;
  ]
