(* Quantization (§5): 8-bit affine codes with gemmlowp-style integer
   matmul accumulation — kernel arithmetic, the builder surface, the
   calibration API and the Quantize optimizer pass. Property tests pin
   the code invariants every other layer assumes: ranges include 0.0
   and are never degenerate, round-trip error is at most one
   quantization step, codes live in 0..255. *)

open Octf_tensor
open Octf
module B = Builder
module Q = Quant_kernels

let metric name =
  Option.value ~default:0.0 (Metrics.find_value Metrics.default name)

(* ------------------------- legacy unit tests ------------------------ *)

let test_roundtrip_error_bound () =
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 16 |] Dtype.F32 in
  let q, lo, hi = B.quantize b x in
  let back = B.dequantize b q lo hi in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let rng = Rng.create 21 in
  let point = Tensor.uniform rng [| 16 |] ~lo:(-4.0) ~hi:4.0 in
  let v = List.hd (Session.run ~feeds:[ (x, point) ] s [ back ]) in
  (* Max quantization error is half a step: (hi - lo) / 255 / 2 ~ 0.016. *)
  for i = 0 to 15 do
    let err = Float.abs (Tensor.flat_get_f v i -. Tensor.flat_get_f point i) in
    if err > 8.0 /. 255.0 then Alcotest.failf "error %f too large" err
  done

let test_codes_in_range () =
  let b = B.create () in
  let x = B.const b (Tensor.of_float_array [| 3 |] [| -1.0; 0.0; 3.0 |]) in
  let q, _, _ = B.quantize b x in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let codes = Tensor.to_int_array (List.hd (Session.run s [ q ])) in
  Array.iter
    (fun c -> if c < 0 || c > 255 then Alcotest.fail "code out of range")
    codes;
  (* min maps to 0 and max to 255 *)
  Alcotest.(check int) "min code" 0 codes.(0);
  Alcotest.(check int) "max code" 255 codes.(2)

let test_quantized_matmul_close () =
  let b = B.create () in
  let xa = B.placeholder b ~shape:[| 4; 6 |] Dtype.F32 in
  let xb = B.placeholder b ~shape:[| 6; 3 |] Dtype.F32 in
  let exact = B.matmul b xa xb in
  let approx = B.quantized_matmul b (B.quantize b xa) (B.quantize b xb) in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let rng = Rng.create 31 in
  let a = Tensor.uniform rng [| 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let c = Tensor.uniform rng [| 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let feeds = [ (xa, a); (xb, c) ] in
  match Session.run ~feeds s [ exact; approx ] with
  | [ e; ap ] ->
      Alcotest.(check bool) "within 8-bit tolerance" true
        (Tensor.approx_equal ~tol:0.05 e ap)
  | _ -> Alcotest.fail "arity"

let test_quantize_constant_tensor () =
  (* A constant tensor still gets a non-degenerate range. *)
  let b = B.create () in
  let x = B.const b (Tensor.full Dtype.F32 [| 4 |] 2.0) in
  let q, lo, hi = B.quantize b x in
  let back = B.dequantize b q lo hi in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let v = List.hd (Session.run s [ back ]) in
  Alcotest.(check bool) "close to 2" true
    (Float.abs (Tensor.flat_get_f v 0 -. 2.0) < 0.02)

(* ------------------------ property tests ---------------------------- *)

let tensor_of_list vs =
  Tensor.of_float_array [| List.length vs |] (Array.of_list vs)

(* Finite floats in a range wide enough to exercise scale diversity but
   free of overflow concerns. *)
let float_gen = QCheck.float_range (-1000.0) 1000.0

(* Round trip through codes moves no element by more than one
   quantization step (the analytic bound is half a step for interior
   values; clamping at the range ends keeps it under a full step).
   Covers empty, constant and negative-only tensors through the list
   generator and the two mapped variants below. *)
let roundtrip_ok vs =
  let t = tensor_of_list vs in
  let codes, lo, hi = Q.quantize t in
  let step = (hi -. lo) /. Q.levels in
  let back = Q.dequantize codes lo hi in
  let ok = ref true in
  List.iteri
    (fun i v ->
      let err = Float.abs (Tensor.flat_get_f back i -. v) in
      if err > step +. 1e-9 then ok := false)
    vs;
  !ok

let prop_roundtrip_one_step =
  QCheck.Test.make ~name:"roundtrip error <= one step" ~count:200
    QCheck.(small_list float_gen)
    roundtrip_ok

let prop_roundtrip_negative_only =
  QCheck.Test.make ~name:"roundtrip on negative-only tensors" ~count:100
    QCheck.(small_list float_gen)
    (fun vs -> roundtrip_ok (List.map (fun v -> -.Float.abs v -. 0.5) vs))

let prop_roundtrip_constant =
  QCheck.Test.make ~name:"roundtrip on constant tensors" ~count:100
    QCheck.(pair float_gen (int_range 1 32))
    (fun (c, n) -> roundtrip_ok (List.init n (fun _ -> c)))

(* The range invariants everything else assumes: lo <= 0 <= hi, never
   degenerate, and the zero-point code decodes to (nearly) 0.0. *)
let prop_range_invariants =
  QCheck.Test.make ~name:"range includes zero, never degenerate" ~count:200
    QCheck.(small_list float_gen)
    (fun vs ->
      let lo, hi = Q.range_of (tensor_of_list vs) in
      let zp = Q.zero_point lo hi in
      let step = (hi -. lo) /. Q.levels in
      let zp_value = lo +. (float_of_int zp *. step) in
      lo <= 0.0 && hi >= 0.0
      && hi -. lo > 1e-9
      && zp >= 0 && zp <= 255
      && Float.abs zp_value <= (step /. 2.0) +. 1e-9)

let prop_codes_in_range =
  QCheck.Test.make ~name:"codes always in 0..255" ~count:200
    QCheck.(small_list float_gen)
    (fun vs ->
      let codes, _, _ = Q.quantize (tensor_of_list vs) in
      let ok = ref true in
      for i = 0 to Tensor.numel codes - 1 do
        let c = Tensor.flat_get_i codes i in
        if c < 0 || c > 255 then ok := false
      done;
      !ok)

let test_empty_tensor () =
  (* numel = 0: quantize yields an empty code tensor with a sane range. *)
  let t = Tensor.of_float_array [| 0 |] [||] in
  let codes, lo, hi = Q.quantize t in
  Alcotest.(check int) "no codes" 0 (Tensor.numel codes);
  Alcotest.(check bool) "sane range" true (lo <= 0.0 && hi > lo);
  Alcotest.(check int) "dequantize empty" 0
    (Tensor.numel (Q.dequantize codes lo hi))

let test_quantize_with_range_clamps () =
  let t = Tensor.of_float_array [| 3 |] [| -10.0; 1.0; 99.0 |] in
  let codes = Q.quantize_with_range t 0.0 4.0 in
  let back = Q.dequantize codes 0.0 4.0 in
  Alcotest.(check (float 1e-6)) "below clamps to lo" 0.0
    (Tensor.flat_get_f back 0);
  Alcotest.(check (float 1e-6)) "above clamps to hi" 4.0
    (Tensor.flat_get_f back 2);
  Alcotest.(check bool) "interior close" true
    (Float.abs (Tensor.flat_get_f back 1 -. 1.0) <= 4.0 /. 255.0)

(* -------------------- structured kernel errors ---------------------- *)

(* Regression: shape violations used to escape as bare
   [Invalid_argument], bypassing the session's typed error path. *)
let test_matmul_shape_mismatch_structured () =
  let qa, alo, ahi = Q.quantize (Tensor.ones Dtype.F32 [| 2; 3 |]) in
  let qb, blo, bhi = Q.quantize (Tensor.ones Dtype.F32 [| 4; 5 |]) in
  match Q.quantized_matmul qa alo ahi qb blo bhi with
  | exception Step_failure.Error { cause = Step_failure.Invalid_graph _; _ } ->
      ()
  | exception Invalid_argument m ->
      Alcotest.failf "bare Invalid_argument escaped: %s" m
  | exception e ->
      Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "shape mismatch not detected"

let test_degenerate_range_structured () =
  let t = Tensor.ones Dtype.F32 [| 4 |] in
  match Q.quantize_with_range t 2.0 2.0 with
  | exception Step_failure.Error { cause = Step_failure.Invalid_graph _; _ } ->
      ()
  | exception e ->
      Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "degenerate range not detected"

(* ----------------------- richer kernel shapes ----------------------- *)

let test_quantized_conv2d_close () =
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 2; 6; 6; 3 |] Dtype.F32 in
  let f = B.placeholder b ~shape:[| 3; 3; 3; 4 |] Dtype.F32 in
  let exact = B.conv2d b ~strides:(1, 1) ~padding:`Same x f in
  let approx =
    B.quantized_conv2d b ~strides:(1, 1) ~padding:`Same (B.quantize b x)
      (B.quantize b f)
  in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let rng = Rng.create 41 in
  let xv = Tensor.uniform rng [| 2; 6; 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let fv = Tensor.uniform rng [| 3; 3; 3; 4 |] ~lo:(-1.0) ~hi:1.0 in
  match Session.run ~feeds:[ (x, xv); (f, fv) ] s [ exact; approx ] with
  | [ e; ap ] ->
      Alcotest.(check bool) "conv within 8-bit tolerance" true
        (Tensor.approx_equal ~tol:0.25 e ap)
  | _ -> Alcotest.fail "arity"

let test_batched_quantized_matmul () =
  (* Rank-3 lhs against shared 2-D weights: every batch slice must match
     its own 2-D quantized product. *)
  let rng = Rng.create 51 in
  let a = Tensor.uniform rng [| 3; 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let w = Tensor.uniform rng [| 6; 5 |] ~lo:(-1.0) ~hi:1.0 in
  let qa, alo, ahi = Q.quantize a in
  let qw, wlo, whi = Q.quantize w in
  let out = Q.quantized_matmul qa alo ahi qw wlo whi in
  Alcotest.(check (list int)) "batched shape" [ 3; 4; 5 ]
    (Array.to_list (Tensor.shape out));
  for s = 0 to 2 do
    (* slice s of the codes, re-packaged as a standalone 2-D quantized
       operand with the same range *)
    let slice = Tensor.zeros Dtype.F32 [| 4; 6 |] in
    for i = 0 to 23 do
      Tensor.flat_set_f slice i
        (Tensor.flat_get_f (Q.dequantize qa alo ahi) ((s * 24) + i))
    done;
    let qs = Q.quantize_with_range slice alo ahi in
    let expect = Q.quantized_matmul qs alo ahi qw wlo whi in
    for i = 0 to 19 do
      let got = Tensor.flat_get_f out ((s * 20) + i) in
      let want = Tensor.flat_get_f expect i in
      if Float.abs (got -. want) > 1e-5 then
        Alcotest.failf "slice %d diverges at %d: %f vs %f" s i got want
    done
  done

let test_epilogue_bias_relu () =
  let rng = Rng.create 61 in
  let a = Tensor.uniform rng [| 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let w = Tensor.uniform rng [| 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let bias = Tensor.of_float_array [| 3 |] [| 0.5; -0.5; 0.1 |] in
  let qa, alo, ahi = Q.quantize a in
  let qw, wlo, whi = Q.quantize w in
  let got = Q.quantized_matmul ~bias ~relu:true qa alo ahi qw wlo whi in
  (* float reference: relu(a @ w + bias) *)
  for i = 0 to 3 do
    for j = 0 to 2 do
      let acc = ref (Tensor.flat_get_f bias j) in
      for p = 0 to 5 do
        acc :=
          !acc
          +. (Tensor.flat_get_f a ((i * 6) + p)
             *. Tensor.flat_get_f w ((p * 3) + j))
      done;
      let want = Float.max 0.0 !acc in
      let g = Tensor.flat_get_f got ((i * 3) + j) in
      if Float.abs (g -. want) > 0.06 then
        Alcotest.failf "epilogue diverges at (%d,%d): %f vs %f" i j g want
    done
  done

let test_matmul_q_codes_out () =
  (* The codes-out variant requantizes into the calibrated range; its
     dequantized value must match the float-out kernel within one output
     quantization step. *)
  let b = B.create () in
  let xa = B.placeholder b ~shape:[| 4; 6 |] Dtype.F32 in
  let xw = B.placeholder b ~shape:[| 6; 3 |] Dtype.F32 in
  let qa = B.quantize b xa and qw = B.quantize b xw in
  let float_out = B.quantized_matmul b qa qw in
  let oc, olo, ohi =
    B.quantized_matmul_q b ~out_range:(-4.0, 4.0) qa qw
  in
  let deq = B.dequantize b oc olo ohi in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let rng = Rng.create 71 in
  let a = Tensor.uniform rng [| 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let w = Tensor.uniform rng [| 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  match Session.run ~feeds:[ (xa, a); (xw, w) ] s [ float_out; deq ] with
  | [ f; d ] ->
      let step = 8.0 /. Q.levels in
      for i = 0 to Tensor.numel f - 1 do
        let err = Float.abs (Tensor.flat_get_f f i -. Tensor.flat_get_f d i) in
        if err > step +. 1e-6 then
          Alcotest.failf "requantize error %f exceeds a step at %d" err i
      done
  | _ -> Alcotest.fail "arity"

(* ------------------- bit-exact integer GEMM core -------------------- *)

(* The oracle: a naive integer triple loop over the codes, rescaled by
   the kernel's own float epilogue expression. Integer sums are exact in
   any order, so the blocked kernel must match this bit for bit. *)
let ref_gemm ~m ~k ~n a ao b bo ~a_lo ~a_hi ~b_lo ~b_hi ~bias ~relu =
  let code s i = Char.code (Bytes.get s i) in
  let sa = (a_hi -. a_lo) /. Q.levels and sb = (b_hi -. b_lo) /. Q.levels in
  let const_term = a_lo *. b_lo *. float_of_int k in
  Array.init (m * n) (fun ij ->
      let i = ij / n and j = ij mod n in
      let acc = ref 0 and rs = ref 0 and cs = ref 0 in
      for p = 0 to k - 1 do
        let x = code a (ao + (i * k) + p) and y = code b (bo + (p * n) + j) in
        acc := !acc + (x * y);
        rs := !rs + x;
        cs := !cs + y
      done;
      let row_term = (b_lo *. sa *. float_of_int !rs) +. const_term in
      let v =
        (sa *. sb *. float_of_int !acc)
        +. (a_lo *. sb *. float_of_int !cs)
        +. row_term
      in
      let v = match bias with None -> v | Some bs -> v +. bs.(j) in
      if relu && v < 0.0 then 0.0 else v)

let random_codes rng shape =
  Tensor.of_bytes shape
    (Bytes.init (Array.fold_left ( * ) 1 shape) (fun _ ->
         Char.chr (Random.State.int rng 256)))

(* A range that includes zero with its zero point away from code 0, so
   conv padding visibly depends on using the zero-point code. *)
let random_range rng =
  (-0.25 -. Random.State.float rng 2.0, 0.5 +. Random.State.float rng 2.0)

let check_bits msg (want : float array) got =
  let got = Tensor.float_buffer got in
  Alcotest.(check int)
    (msg ^ ": length") (Array.length want) (Array.length got);
  Array.iteri
    (fun i w ->
      if Int64.bits_of_float w <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: element %d is %h, want %h" msg i got.(i) w)
    want

(* The codes-out kernel must equal a separate Quantize of the float-out
   result — the fused epilogue rounds and clamps exactly the same way. *)
let check_codes_out msg ~out_range float_out codes_out =
  let lo, hi = out_range in
  let want = Q.quantize_with_range float_out lo hi in
  Alcotest.(check int) (msg ^ ": dtype") 0
    (compare (Tensor.dtype codes_out) Dtype.U8);
  if not (Bytes.equal (Tensor.byte_buffer want) (Tensor.byte_buffer codes_out))
  then Alcotest.failf "%s: codes-out differs from quantize_with_range" msg

let with_threads n f =
  let saved = Parallel.threads () in
  Parallel.set_threads n;
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) f

let gemm_shapes =
  (* odd m, odd n, n mod 8 <> 0, k = 0 and k = 1, and full 2x4 tiles *)
  [
    (1, 1, 1); (3, 5, 7); (7, 0, 5); (5, 1, 9); (2, 17, 8); (9, 13, 16);
    (4, 3, 1); (11, 33, 13); (6, 50, 3); (16, 64, 24); (13, 40, 17);
  ]

let test_gemm_bit_exact_matmul () =
  let rng = Random.State.make [| 101 |] in
  List.iter
    (fun threads ->
      with_threads threads @@ fun () ->
      List.iter
        (fun (m, k, n) ->
          let qa = random_codes rng [| m; k |] in
          let qb = random_codes rng [| k; n |] in
          let a_lo, a_hi = random_range rng and b_lo, b_hi = random_range rng in
          let bias_arr =
            Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0)
          in
          List.iter
            (fun (with_bias, relu) ->
              let msg =
                Printf.sprintf "%dx%dx%d bias=%b relu=%b threads=%d" m k n
                  with_bias relu threads
              in
              let bias =
                if with_bias then Some (Tensor.of_float_array [| n |] bias_arr)
                else None
              in
              let got =
                Q.quantized_matmul ?bias ~relu qa a_lo a_hi qb b_lo b_hi
              in
              check_bits msg
                (ref_gemm ~m ~k ~n (Tensor.byte_buffer qa) 0
                   (Tensor.byte_buffer qb) 0 ~a_lo ~a_hi ~b_lo ~b_hi
                   ~bias:(if with_bias then Some bias_arr else None)
                   ~relu)
                got;
              let out_range = (-3.0, 5.0) in
              check_codes_out msg ~out_range got
                (Q.quantized_matmul ?bias ~relu ~out_range qa a_lo a_hi qb b_lo
                   b_hi))
            [ (false, false); (true, false); (false, true); (true, true) ])
        gemm_shapes)
    [ 1; 2; 4 ]

let test_gemm_bit_exact_batched () =
  let rng = Random.State.make [| 102 |] in
  let m = 5 and k = 11 and n = 9 in
  let qa = random_codes rng [| 2; 3; m; k |] in
  let a_lo, a_hi = random_range rng and b_lo, b_hi = random_range rng in
  let a = Tensor.byte_buffer qa in
  let expect qb ~b_batched =
    Array.concat
      (List.init 6 (fun bi ->
           ref_gemm ~m ~k ~n a (bi * m * k) (Tensor.byte_buffer qb)
             (if b_batched then bi * k * n else 0)
             ~a_lo ~a_hi ~b_lo ~b_hi ~bias:None ~relu:false))
  in
  List.iter
    (fun (what, qb, b_batched) ->
      let got = Q.quantized_matmul qa a_lo a_hi qb b_lo b_hi in
      Alcotest.(check (list int)) (what ^ " shape") [ 2; 3; m; n ]
        (Array.to_list (Tensor.shape got));
      check_bits what (expect qb ~b_batched) got;
      let out_range = (-40.0, 60.0) in
      check_codes_out what ~out_range got
        (Q.quantized_matmul ~out_range qa a_lo a_hi qb b_lo b_hi))
    [
      ("shared rhs", random_codes rng [| k; n |], false);
      ("batched rhs", random_codes rng [| 2; 3; k; n |], true);
    ]

(* 255*255*k passes 2^31 at k = 33,026: the high lane would overflow
   unless k is split into chunks. *)
let test_gemm_lane_chunks () =
  let m = 3 and k = 33_100 and n = 3 in
  let qa = Tensor.of_bytes [| m; k |] (Bytes.make (m * k) '\255') in
  let qb = Tensor.of_bytes [| k; n |] (Bytes.make (k * n) '\255') in
  let got = Q.quantized_matmul qa 0.0 1.0 qb (-1.0) 1.0 in
  check_bits "all-255, k = 33100"
    (ref_gemm ~m ~k ~n (Tensor.byte_buffer qa) 0 (Tensor.byte_buffer qb) 0
       ~a_lo:0.0 ~a_hi:1.0 ~b_lo:(-1.0) ~b_hi:1.0 ~bias:None ~relu:false)
    got;
  Alcotest.(check (float 1e-6)) "value" 33_100.0 (Tensor.flat_get_f got 0)

(* Naive direct convolution over codes, padding with the zero point,
   rescaled through the GEMM oracle. *)
let ref_conv qx ~x_lo ~x_hi qf ~f_lo ~f_hi ~stride ~padding ~bias ~relu =
  let is = Tensor.shape qx and fs = Tensor.shape qf in
  let bt = is.(0) and ih = is.(1) and iw = is.(2) and ic = is.(3) in
  let fh = fs.(0) and fw = fs.(1) and oc = fs.(3) in
  let oh, ph = Tensor_ops.conv_dim ~padding ~in_size:ih ~filter:fh ~stride in
  let ow, pw = Tensor_ops.conv_dim ~padding ~in_size:iw ~filter:fw ~stride in
  let zp = Char.chr (Q.zero_point x_lo x_hi) in
  let src = Tensor.byte_buffer qx in
  let kdim = fh * fw * ic and rows = bt * oh * ow in
  let cols = Bytes.make (rows * kdim) zp in
  for b = 0 to bt - 1 do
    for y = 0 to oh - 1 do
      for x = 0 to ow - 1 do
        for ky = 0 to fh - 1 do
          for kx = 0 to fw - 1 do
            for c = 0 to ic - 1 do
              let sy = (y * stride) + ky - ph and sx = (x * stride) + kx - pw in
              if sy >= 0 && sy < ih && sx >= 0 && sx < iw then
                Bytes.set cols
                  ((((((b * oh) + y) * ow) + x) * kdim)
                  + (((ky * fw) + kx) * ic)
                  + c)
                  (Bytes.get src ((((((b * ih) + sy) * iw) + sx) * ic) + c))
            done
          done
        done
      done
    done
  done;
  ( [| bt; oh; ow; oc |],
    ref_gemm ~m:rows ~k:kdim ~n:oc cols 0 (Tensor.byte_buffer qf) 0
      ~a_lo:x_lo ~a_hi:x_hi ~b_lo:f_lo ~b_hi:f_hi ~bias ~relu )

let conv_case rng ~bt ~ih ~iw ~ic ~fh ~fw ~oc =
  let qx = random_codes rng [| bt; ih; iw; ic |] in
  let qf = random_codes rng [| fh; fw; ic; oc |] in
  let x_lo, x_hi = random_range rng and f_lo, f_hi = random_range rng in
  let bias = Array.init oc (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  (qx, x_lo, x_hi, qf, f_lo, f_hi, bias)

let run_conv ?out_range (qx, x_lo, x_hi, qf, f_lo, f_hi, bias) ~stride
    ~padding ~relu =
  Q.quantized_conv2d
    ~bias:(Tensor.of_float_array [| Array.length bias |] bias)
    ~relu ?out_range qx x_lo x_hi qf f_lo f_hi ~strides:(stride, stride)
    ~padding

let test_gemm_bit_exact_conv () =
  let rng = Random.State.make [| 103 |] in
  let cases =
    [
      conv_case rng ~bt:2 ~ih:7 ~iw:9 ~ic:1 ~fh:5 ~fw:5 ~oc:8;
      conv_case rng ~bt:1 ~ih:8 ~iw:6 ~ic:3 ~fh:3 ~fw:2 ~oc:5;
      conv_case rng ~bt:3 ~ih:5 ~iw:5 ~ic:4 ~fh:3 ~fw:3 ~oc:17;
      (* im2col runs of 16 bytes and more: the blit and fill path. *)
      conv_case rng ~bt:2 ~ih:6 ~iw:7 ~ic:8 ~fh:3 ~fw:3 ~oc:6;
    ]
  in
  List.iter
    (fun threads ->
      with_threads threads @@ fun () ->
      List.iteri
        (fun ci ((qx, x_lo, x_hi, qf, f_lo, f_hi, bias) as case) ->
          List.iter
            (fun (stride, padding, relu) ->
              let msg =
                Printf.sprintf "case %d stride %d %s relu=%b threads=%d" ci
                  stride
                  (if padding = Tensor_ops.Same then "SAME" else "VALID")
                  relu threads
              in
              let shape, want =
                ref_conv qx ~x_lo ~x_hi qf ~f_lo ~f_hi ~stride ~padding
                  ~bias:(Some bias) ~relu
              in
              let got = run_conv case ~stride ~padding ~relu in
              Alcotest.(check (list int)) (msg ^ " shape") (Array.to_list shape)
                (Array.to_list (Tensor.shape got));
              check_bits msg want got;
              let out_range = (-20.0, 30.0) in
              check_codes_out msg ~out_range got
                (run_conv ~out_range case ~stride ~padding ~relu))
            [
              (1, Tensor_ops.Same, false); (1, Tensor_ops.Valid, true);
              (2, Tensor_ops.Same, true); (2, Tensor_ops.Valid, false);
            ])
        cases)
    [ 1; 2; 4 ]

(* The im2col buffer and packed panel are reused through scratch slots;
   two systhreads running the same conv must each still get their own
   answer. *)
let test_gemm_concurrent_threads () =
  let worker seed =
    let rng = Random.State.make [| seed |] in
    let case = conv_case rng ~bt:2 ~ih:12 ~iw:12 ~ic:4 ~fh:3 ~fw:3 ~oc:12 in
    let qx, x_lo, x_hi, qf, f_lo, f_hi, bias = case in
    let _, want =
      ref_conv qx ~x_lo ~x_hi qf ~f_lo ~f_hi ~stride:1 ~padding:Tensor_ops.Same
        ~bias:(Some bias) ~relu:false
    in
    let bad = ref 0 in
    for _ = 1 to 300 do
      let got =
        Tensor.float_buffer
          (run_conv case ~stride:1 ~padding:Tensor_ops.Same ~relu:false)
      in
      if got <> want then incr bad;
      Thread.yield ()
    done;
    !bad
  in
  let results = Array.make 2 (-1) in
  let threads =
    List.init 2 (fun i ->
        Thread.create (fun () -> results.(i) <- worker (201 + i)) ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i bad ->
      Alcotest.(check int) (Printf.sprintf "thread %d mismatches" i) 0 bad)
    results

(* Regression: one infinity used to widen the range to inf, and every
   code — the finite elements' too — decoded to NaN. *)
let test_range_ignores_infinity () =
  let t = Tensor.of_float_array [| 4 |] [| Float.infinity; 0.25; -0.5; 1.0 |] in
  let codes, lo, hi = Q.quantize t in
  Alcotest.(check (float 0.0)) "lo" (-0.5) lo;
  Alcotest.(check (float 0.0)) "hi" 1.0 hi;
  let back = Q.dequantize codes lo hi in
  Alcotest.(check (float 1e-9))
    "inf clamps to hi" 1.0 (Tensor.flat_get_f back 0);
  List.iter
    (fun i ->
      let err = Float.abs (Tensor.flat_get_f back i -. Tensor.flat_get_f t i) in
      if not (err <= (hi -. lo) /. Q.levels) then
        Alcotest.failf "element %d decodes to %g" i (Tensor.flat_get_f back i))
    [ 1; 2; 3 ];
  let neg = Tensor.of_float_array [| 2 |] [| Float.neg_infinity; 2.0 |] in
  let codes, lo, hi = Q.quantize neg in
  Alcotest.(check (float 0.0)) "-inf ignored by range" 0.0 lo;
  Alcotest.(check int) "-inf clamps to code 0" 0
    (Tensor.flat_get_i codes 0);
  Alcotest.(check (float 0.0)) "hi from finite" 2.0 hi

(* Codes round half away from zero and clamp to 0..255, exactly
   [Float.round] followed by a clamp, including at every half-step
   boundary and its float neighbours. *)
let test_encode_rounds_like_float_round () =
  let values =
    List.concat_map
      (fun i ->
        let h = float_of_int i +. 0.5 and w = float_of_int i in
        [ h; Float.pred h; Float.succ h; w; Float.pred w; Float.succ w ])
      (List.init 262 (fun i -> i - 3))
    @ [
        0.0; -0.0; 1e-300; -1e-300; 1e300; -1e300; Float.infinity;
        Float.neg_infinity; 0.49999999999999994;
      ]
  in
  let t =
    Tensor.of_float_array [| List.length values |] (Array.of_list values)
  in
  let codes = Q.quantize_with_range t 0.0 255.0 in
  List.iteri
    (fun i v ->
      let want =
        int_of_float (Float.max 0.0 (Float.min 255.0 (Float.round v)))
      in
      let got = Tensor.flat_get_i codes i in
      if got <> want then Alcotest.failf "%h encodes to %d, want %d" v got want)
    values

let test_non_finite_range_rejected () =
  let t = Tensor.of_float_array [| 2 |] [| 0.5; 1.0 |] in
  List.iter
    (fun (lo, hi) ->
      match Q.quantize_with_range t lo hi with
      | exception
          Step_failure.Error { cause = Step_failure.Invalid_graph _; _ } ->
          ()
      | exception e ->
          Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
      | _ -> Alcotest.failf "range [%g, %g] accepted" lo hi)
    [
      (0.0, Float.infinity); (Float.neg_infinity, 1.0); (Float.nan, 1.0);
      (0.0, Float.nan);
    ]

(* --------------------------- calibration ---------------------------- *)

let test_calibration_min_max () =
  let cal = Quant_calibration.create () in
  Quant_calibration.observe cal "act"
    (Tensor.of_float_array [| 2 |] [| 1.0; 3.0 |]);
  Quant_calibration.observe cal "act"
    (Tensor.of_float_array [| 2 |] [| -2.0; 2.0 |]);
  (match Quant_calibration.ranges cal "act" with
  | Some (lo, hi) ->
      Alcotest.(check (float 1e-9)) "lo" (-2.0) lo;
      Alcotest.(check (float 1e-9)) "hi" 3.0 hi
  | None -> Alcotest.fail "no range");
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "unobserved" None
    (Quant_calibration.ranges cal "other");
  Alcotest.(check (list string)) "observed" [ "act" ]
    (Quant_calibration.observed cal)

let test_calibration_sanitizes () =
  let cal = Quant_calibration.create () in
  (* positive-only observations: the range must still include zero *)
  Quant_calibration.observe cal "pos"
    (Tensor.of_float_array [| 2 |] [| 2.0; 5.0 |]);
  (match Quant_calibration.ranges cal "pos" with
  | Some (lo, hi) -> Alcotest.(check bool) "zero in" true (lo <= 0.0 && hi >= 5.0)
  | None -> Alcotest.fail "no range");
  (* constant observations: degenerate range widened *)
  Quant_calibration.observe cal "flat" (Tensor.zeros Dtype.F32 [| 4 |]);
  match Quant_calibration.ranges cal "flat" with
  | Some (lo, hi) -> Alcotest.(check bool) "widened" true (hi -. lo >= 1.0)
  | None -> Alcotest.fail "no range"

let test_calibration_ema () =
  let cal = Quant_calibration.create ~mode:(Quant_calibration.Ema 0.5) () in
  Quant_calibration.observe cal "act"
    (Tensor.of_float_array [| 1 |] [| 8.0 |]);
  Quant_calibration.observe cal "act"
    (Tensor.of_float_array [| 1 |] [| 4.0 |]);
  (match Quant_calibration.ranges cal "act" with
  | Some (_, hi) -> Alcotest.(check (float 1e-9)) "blended hi" 6.0 hi
  | None -> Alcotest.fail "no range");
  match Quant_calibration.create ~mode:(Quant_calibration.Ema 1.5) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad decay accepted"

(* ------------------------- the optimizer pass ----------------------- *)

(* A one-layer frozen model: matmul against Const weights with a Const
   bias and a relu, plus an Identity so the absorbed chain is interior
   (fetched nodes are never rewritten). *)
let one_layer_graph () =
  let b = B.create () in
  let rngw = Rng.create 81 in
  let x = B.placeholder b ~shape:[| 2; 4 |] Dtype.F32 in
  let w = B.const b (Tensor.uniform rngw [| 4; 3 |] ~lo:(-1.0) ~hi:1.0) in
  let bias = B.const b (Tensor.of_float_array [| 3 |] [| 0.2; -0.1; 0.3 |]) in
  let act = B.relu b ~name:"act1" (B.add b (B.matmul b x w) bias) in
  let out = B.identity b act in
  (b, x, out)

(* Count [op] among the nodes the fetch actually depends on: rewriting
   passes leave the losing originals disconnected in the graph, so a
   whole-graph count would see stale nodes. *)
let count_ops session (fetch : B.output) op =
  let graph = Session.graph session in
  let seen = Hashtbl.create 16 in
  let n = ref 0 in
  let rec walk id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let node = Graph.get graph id in
      if node.Node.op_type = op then incr n;
      Array.iter (fun (e : Node.endpoint) -> walk e.Node.node_id) node.Node.inputs;
      List.iter walk node.Node.control_inputs
    end
  in
  walk fetch.B.node.Node.id;
  !n

let feed_x rng = Tensor.uniform rng [| 2; 4 |] ~lo:(-1.0) ~hi:1.0

let test_pass_calibrated_island () =
  let islands0 = metric "octf_quant_islands_total" in
  let wf0 = metric "octf_quant_weight_bytes_float_total" in
  let wc0 = metric "octf_quant_weight_bytes_code_total" in
  let b, x, out = one_layer_graph () in
  let xv = feed_x (Rng.create 91) in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let ranges = function "act1" -> Some (0.0, 4.0) | _ -> None in
  let b2, x2, out2 = one_layer_graph () in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:[ Graph_optimizer.Quantize ranges; Graph_optimizer.Prune ]
           ())
      (B.graph b2)
  in
  let got = List.hd (Session.run ~feeds:[ (x2, xv) ] sq [ out2 ]) in
  Alcotest.(check bool) "quantized output close" true
    (Tensor.approx_equal ~tol:0.1 reference got);
  Alcotest.(check int) "codes-out island present" 1
    (count_ops sq out2 "QuantizedMatMulQ");
  Alcotest.(check int) "relu absorbed" 0 (count_ops sq out2 "Relu");
  Alcotest.(check bool) "island metric bumped" true
    (metric "octf_quant_islands_total" >= islands0 +. 1.0);
  (* 4x weight memory cut, measured on this pass's weights alone *)
  let df = metric "octf_quant_weight_bytes_float_total" -. wf0 in
  let dc = metric "octf_quant_weight_bytes_code_total" -. wc0 in
  Alcotest.(check (float 1e-9)) "weight bytes ratio" 4.0 (df /. dc)

let test_pass_dynamic_island () =
  let islands0 = metric "octf_quant_islands_total" in
  let b, x, out = one_layer_graph () in
  let xv = feed_x (Rng.create 92) in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let b2, x2, out2 = one_layer_graph () in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:
             [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
           ())
      (B.graph b2)
  in
  let got = List.hd (Session.run ~feeds:[ (x2, xv) ] sq [ out2 ]) in
  Alcotest.(check bool) "dynamic quantized output close" true
    (Tensor.approx_equal ~tol:0.1 reference got);
  (* no output range: the island is the root alone, float-out *)
  Alcotest.(check int) "float-out island" 1 (count_ops sq out2 "QuantizedMatMul");
  Alcotest.(check int) "bias/relu stay float" 1 (count_ops sq out2 "Relu");
  Alcotest.(check bool) "island metric bumped" true
    (metric "octf_quant_islands_total" >= islands0 +. 1.0)

(* Two calibrated layers back to back: the Dequantize -> Quantize pair
   between them must be elided so the islands exchange codes. *)
let two_layer_graph () =
  let b = B.create () in
  let rngw = Rng.create 82 in
  let x = B.placeholder b ~shape:[| 2; 4 |] Dtype.F32 in
  let w1 = B.const b (Tensor.uniform rngw [| 4; 5 |] ~lo:(-1.0) ~hi:1.0) in
  let b1 = B.const b (Tensor.of_float_array [| 5 |] [| 0.1; 0.2; -0.1; 0.0; 0.3 |]) in
  let act1 = B.relu b ~name:"layer1" (B.add b (B.matmul b x w1) b1) in
  let w2 = B.const b (Tensor.uniform rngw [| 5; 3 |] ~lo:(-1.0) ~hi:1.0) in
  let b2 = B.const b (Tensor.of_float_array [| 3 |] [| 0.0; 0.1; -0.2 |]) in
  let act2 = B.relu b ~name:"layer2" (B.add b (B.matmul b act1 w2) b2) in
  let out = B.identity b act2 in
  (b, x, out)

let test_pass_elides_between_islands () =
  let elisions0 = metric "octf_quant_elisions_total" in
  let b, x, out = two_layer_graph () in
  let xv = feed_x (Rng.create 93) in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let ranges = function
    | "layer1" -> Some (0.0, 4.0)
    | "layer2" -> Some (0.0, 8.0)
    | _ -> None
  in
  let b2, x2, out2 = two_layer_graph () in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:[ Graph_optimizer.Quantize ranges; Graph_optimizer.Prune ]
           ())
      (B.graph b2)
  in
  let got = List.hd (Session.run ~feeds:[ (x2, xv) ] sq [ out2 ]) in
  Alcotest.(check bool) "two-layer quantized output close" true
    (Tensor.approx_equal ~tol:0.2 reference got);
  Alcotest.(check int) "both islands rewritten" 2
    (count_ops sq out2 "QuantizedMatMulQ");
  (* layer2's input Quantize was elided: only layer1's input quantizes *)
  Alcotest.(check int) "one live input quantize" 1
    (count_ops sq out2 "Quantize" + count_ops sq out2 "QuantizeRange");
  Alcotest.(check bool) "elision metric bumped" true
    (metric "octf_quant_elisions_total" >= elisions0 +. 1.0)

let test_pass_inert_on_variables () =
  (* Weights behind Read (a training graph): nothing is eligible, and
     the output is bit-identical to the unoptimized run. *)
  let build () =
    let b = B.create () in
    let v =
      B.variable b ~name:"w" ~dtype:Dtype.F32 ~shape:[| 4; 3 |] ()
    in
    let init = B.assign b v (B.const b (Tensor.ones Dtype.F32 [| 4; 3 |])) in
    let x = B.placeholder b ~shape:[| 2; 4 |] Dtype.F32 in
    let out = B.identity b (B.relu b (B.matmul b x (B.read b v))) in
    (b, init, x, out)
  in
  let xv = feed_x (Rng.create 94) in
  let b, init, x, out = build () in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  Session.run_unit sref [ init ];
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let b2, init2, x2, out2 = build () in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:
             [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
           ())
      (B.graph b2)
  in
  Session.run_unit sq [ init2 ];
  let got = List.hd (Session.run ~feeds:[ (x2, xv) ] sq [ out2 ]) in
  Alcotest.(check bool) "bit-identical" true (Tensor.equal reference got);
  Alcotest.(check int) "no islands" 0
    (count_ops sq out2 "QuantizedMatMul" + count_ops sq out2 "QuantizedMatMulQ")

let test_pass_skips_fetched_root () =
  (* Fetching the matmul itself pins it: logits stay float. *)
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 2; 4 |] Dtype.F32 in
  let w = B.const b (Tensor.ones Dtype.F32 [| 4; 3 |]) in
  let out = B.matmul b x w in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:
             [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
           ())
      (B.graph b)
  in
  let xv = feed_x (Rng.create 95) in
  let got = List.hd (Session.run ~feeds:[ (x, xv) ] sq [ out ]) in
  Alcotest.(check int) "not rewritten" 0
    (count_ops sq out "QuantizedMatMul" + count_ops sq out "QuantizedMatMulQ");
  (* exact float matmul of ones-weights: row sums of x *)
  for i = 0 to 1 do
    let want = ref 0.0 in
    for j = 0 to 3 do
      want := !want +. Tensor.flat_get_f xv ((i * 4) + j)
    done;
    for j = 0 to 2 do
      Alcotest.(check (float 1e-5)) "exact" !want
        (Tensor.flat_get_f got ((i * 3) + j))
    done
  done

let test_pass_quantizes_conv () =
  let b = B.create () in
  let rngw = Rng.create 83 in
  let x = B.placeholder b ~shape:[| 1; 6; 6; 2 |] Dtype.F32 in
  let f = B.const b (Tensor.uniform rngw [| 3; 3; 2; 4 |] ~lo:(-1.0) ~hi:1.0) in
  let conv = B.conv2d b ~name:"c1" ~strides:(1, 1) ~padding:`Same x f in
  let out = B.identity b (B.relu b ~name:"act" conv) in
  let xv = Tensor.uniform (Rng.create 96) [| 1; 6; 6; 2 |] ~lo:(-1.0) ~hi:1.0 in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:
             [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
           ())
      (B.graph b)
  in
  let got = List.hd (Session.run ~feeds:[ (x, xv) ] sq [ out ]) in
  Alcotest.(check int) "conv island" 1 (count_ops sq out "QuantizedConv2D");
  Alcotest.(check bool) "conv output close" true
    (Tensor.approx_equal ~tol:0.2 reference got)

(* ------------------- codes through MaxPool and Reshape ------------------- *)

(* A small trained convnet, conv -> relu -> maxpool -> reshape -> matmul,
   whose conv activation also feeds an auxiliary ReduceSum. The training
   graph (MaxPoolGrad and friends) stays in the graph that is frozen. *)
type pool_model = {
  session : Session.t;
  pixels : B.output;
  conv : B.output;
  pool : B.output;
  logits : B.output;
  aux : B.output;  (** a second reader of the conv activation *)
}

let pool_model () =
  let module Vs = Octf_nn.Var_store in
  let module L = Octf_nn.Layers in
  let b = B.create () in
  let store = Vs.create ~seed:5 b in
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let labels = B.placeholder b ~name:"labels" Dtype.I32 in
  let conv =
    L.conv2d store ~activation:`Relu ~name:"conv" ~in_channels:1
      ~out_channels:4 ~ksize:(3, 3) pixels
  in
  let pool = L.max_pool2d b ~ksize:(2, 2) conv in
  let flat = L.flatten b ~features:64 pool in
  let logits = L.dense store ~name:"logits" ~in_dim:64 ~out_dim:4 flat in
  let aux = B.reduce_sum b conv in
  let loss =
    Octf_nn.Losses.sparse_softmax_cross_entropy_mean b ~num_classes:4 ~logits
      ~labels
  in
  let train = Octf_train.Optimizer.minimize store ~lr:0.05 ~loss () in
  let session = Session.create (B.graph b) in
  Session.run_unit session [ Vs.init_op store ];
  let rng = Rng.create 7 in
  for _ = 1 to 20 do
    let batch =
      Octf_data.Synthetic.image_batch rng ~batch:16 ~size:8 ~channels:1
        ~classes:4
    in
    Session.run_unit session
      ~feeds:
        [
          (pixels, batch.Octf_data.Synthetic.pixels);
          (labels, batch.Octf_data.Synthetic.labels);
        ]
      [ train ]
  done;
  { session; pixels; conv; pool; logits; aux }

let pool_images seed =
  (Octf_data.Synthetic.image_batch (Rng.create seed) ~batch:32 ~size:8
     ~channels:1 ~classes:4)
    .Octf_data.Synthetic.pixels

(* Calibrate on the float twin, then freeze a quantized twin serving
   [outputs]. *)
let freeze_pool_model m ~outputs =
  let float_twin =
    Octf_serving.Serving.freeze_session ~quantize:false ~inputs:[ m.pixels ]
      ~outputs:[ m.logits ] m.session
  in
  let cal = Quant_calibration.create () in
  Quant_calibration.observe_step cal float_twin
    ~feeds:[ (m.pixels, pool_images 11) ]
    [ m.conv; m.pool; m.logits ];
  let quant =
    Octf_serving.Serving.freeze_session ~quantize:true
      ~ranges:(Quant_calibration.ranges cal) ~inputs:[ m.pixels ] ~outputs
      m.session
  in
  (float_twin, quant)

let producer_op session (n : Node.t) =
  (Graph.get (Session.graph session) n.Node.inputs.(0).Node.node_id).Node.op_type

(* The node of [op] feeding the fetch, found by walking its cone. *)
let find_op session (fetch : B.output) op =
  let graph = Session.graph session in
  let rec walk id =
    let n = Graph.get graph id in
    if n.Node.op_type = op then Some n
    else
      Array.fold_left
        (fun acc (e : Node.endpoint) ->
          match acc with Some _ -> acc | None -> walk e.Node.node_id)
        None n.Node.inputs
  in
  walk fetch.B.node.Node.id

let test_codes_through_pooling () =
  let m = pool_model () in
  let float_twin, quant = freeze_pool_model m ~outputs:[ m.logits ] in
  let count = count_ops quant m.logits in
  Alcotest.(check int) "conv island" 1 (count "QuantizedConv2DQ");
  Alcotest.(check int) "matmul island" 1 (count "QuantizedMatMul");
  Alcotest.(check int) "no Dequantize between the islands" 0 (count "Dequantize");
  Alcotest.(check int) "only the input quantizes" 1
    (count "QuantizeRange" + count "Quantize");
  (match find_op quant m.logits "MaxPool" with
  | Some pool ->
      Alcotest.(check string) "MaxPool reads the conv codes" "QuantizedConv2DQ"
        (producer_op quant pool)
  | None -> Alcotest.fail "no MaxPool left");
  (match find_op quant m.logits "Reshape" with
  | Some r ->
      Alcotest.(check string) "Reshape reads pooled codes" "MaxPool"
        (producer_op quant r)
  | None -> Alcotest.fail "no Reshape left");
  let images = pool_images 13 in
  let run s = List.hd (Session.run ~feeds:[ (m.pixels, images) ] s [ m.logits ]) in
  let f = run float_twin and q = run quant in
  let agree = ref 0 in
  for row = 0 to 31 do
    let top t =
      let best = ref 0 in
      for j = 1 to 3 do
        if Tensor.flat_get_f t ((row * 4) + j) > Tensor.flat_get_f t ((row * 4) + !best)
        then best := j
      done;
      !best
    in
    if top f = top q then incr agree
  done;
  if !agree < 29 then
    Alcotest.failf "int8 top-1 agrees with the float twin on %d of 32" !agree

(* A fetched MaxPool is pinned: it stays float, reading a Dequantize,
   and the logits read it too, so the step pools once. *)
let test_fetched_pool_stays_float () =
  let m = pool_model () in
  let _, quant = freeze_pool_model m ~outputs:[ m.logits; m.pool ] in
  let pool = Graph.get (Session.graph quant) m.pool.B.node.Node.id in
  Alcotest.(check string) "fetched MaxPool reads floats" "Dequantize"
    (producer_op quant pool);
  Alcotest.(check (option int)) "the logits read the fetched MaxPool"
    (Some pool.Node.id)
    (Option.map (fun (n : Node.t) -> n.Node.id) (find_op quant m.logits "MaxPool"));
  match Session.run ~feeds:[ (m.pixels, pool_images 13) ] quant [ m.logits; m.pool ] with
  | [ _; p ] ->
      Alcotest.(check string) "fetched pool is float" "float32"
        (Dtype.to_string (Tensor.dtype p))
  | _ -> Alcotest.fail "arity"

(* A Dequantize read by a second node of the step stays where it is. *)
let test_shared_dequantize_stays () =
  let m = pool_model () in
  let _, quant = freeze_pool_model m ~outputs:[ m.logits; m.aux ] in
  (match find_op quant m.logits "MaxPool" with
  | Some pool ->
      Alcotest.(check string) "MaxPool still reads floats" "Dequantize"
        (producer_op quant pool)
  | None -> Alcotest.fail "no MaxPool left");
  Alcotest.(check int) "one Dequantize" 1 (count_ops quant m.aux "Dequantize")

let suite =
  [
    Alcotest.test_case "roundtrip error bound" `Quick test_roundtrip_error_bound;
    Alcotest.test_case "codes in range" `Quick test_codes_in_range;
    Alcotest.test_case "quantized matmul" `Quick test_quantized_matmul_close;
    Alcotest.test_case "constant tensor" `Quick test_quantize_constant_tensor;
    QCheck_alcotest.to_alcotest prop_roundtrip_one_step;
    QCheck_alcotest.to_alcotest prop_roundtrip_negative_only;
    QCheck_alcotest.to_alcotest prop_roundtrip_constant;
    QCheck_alcotest.to_alcotest prop_range_invariants;
    QCheck_alcotest.to_alcotest prop_codes_in_range;
    Alcotest.test_case "empty tensor" `Quick test_empty_tensor;
    Alcotest.test_case "calibrated range clamps" `Quick
      test_quantize_with_range_clamps;
    Alcotest.test_case "shape mismatch is structured" `Quick
      test_matmul_shape_mismatch_structured;
    Alcotest.test_case "degenerate range is structured" `Quick
      test_degenerate_range_structured;
    Alcotest.test_case "quantized conv2d" `Quick test_quantized_conv2d_close;
    Alcotest.test_case "batched quantized matmul" `Quick
      test_batched_quantized_matmul;
    Alcotest.test_case "bias+relu epilogue" `Quick test_epilogue_bias_relu;
    Alcotest.test_case "codes-out requantization" `Quick
      test_matmul_q_codes_out;
    Alcotest.test_case "gemm: bit-exact matmul" `Quick
      test_gemm_bit_exact_matmul;
    Alcotest.test_case "gemm: bit-exact batched matmul" `Quick
      test_gemm_bit_exact_batched;
    Alcotest.test_case "gemm: lane chunks at k = 33100" `Quick
      test_gemm_lane_chunks;
    Alcotest.test_case "gemm: bit-exact conv2d" `Quick
      test_gemm_bit_exact_conv;
    Alcotest.test_case "gemm: concurrent systhreads" `Quick
      test_gemm_concurrent_threads;
    Alcotest.test_case "range ignores infinities" `Quick
      test_range_ignores_infinity;
    Alcotest.test_case "codes round like Float.round" `Quick
      test_encode_rounds_like_float_round;
    Alcotest.test_case "non-finite range is structured" `Quick
      test_non_finite_range_rejected;
    Alcotest.test_case "calibration min/max" `Quick test_calibration_min_max;
    Alcotest.test_case "calibration sanitizes ranges" `Quick
      test_calibration_sanitizes;
    Alcotest.test_case "calibration EMA" `Quick test_calibration_ema;
    Alcotest.test_case "pass: calibrated island" `Quick
      test_pass_calibrated_island;
    Alcotest.test_case "pass: dynamic island" `Quick test_pass_dynamic_island;
    Alcotest.test_case "pass: elision between islands" `Quick
      test_pass_elides_between_islands;
    Alcotest.test_case "pass: inert on variables" `Quick
      test_pass_inert_on_variables;
    Alcotest.test_case "pass: fetched root stays float" `Quick
      test_pass_skips_fetched_root;
    Alcotest.test_case "pass: conv island" `Quick test_pass_quantizes_conv;
    Alcotest.test_case "pass: codes through MaxPool and Reshape" `Quick
      test_codes_through_pooling;
    Alcotest.test_case "pass: fetched MaxPool stays float" `Quick
      test_fetched_pool_stays_float;
    Alcotest.test_case "pass: shared Dequantize stays" `Quick
      test_shared_dequantize_stays;
  ]
