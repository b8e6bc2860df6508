open Octf_tensor
module O = Tensor_ops

let t2 rows cols data = Tensor.of_float_array [| rows; cols |] data

let check_t msg expected actual =
  if not (Tensor.approx_equal ~tol:1e-6 expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

let test_elementwise () =
  let a = Tensor.of_float_array [| 3 |] [| 1.; 2.; 3. |] in
  let b = Tensor.of_float_array [| 3 |] [| 4.; 5.; 6. |] in
  check_t "add" (Tensor.of_float_array [| 3 |] [| 5.; 7.; 9. |]) (O.add a b);
  check_t "sub" (Tensor.of_float_array [| 3 |] [| -3.; -3.; -3. |]) (O.sub a b);
  check_t "mul" (Tensor.of_float_array [| 3 |] [| 4.; 10.; 18. |]) (O.mul a b);
  check_t "div" (Tensor.of_float_array [| 3 |] [| 0.25; 0.4; 0.5 |]) (O.div a b);
  check_t "neg" (Tensor.of_float_array [| 3 |] [| -1.; -2.; -3. |]) (O.neg a);
  check_t "maximum" b (O.maximum a b);
  check_t "minimum" a (O.minimum a b)

let test_unary_math () =
  let x = Tensor.of_float_array [| 2 |] [| 4.0; 9.0 |] in
  check_t "sqrt" (Tensor.of_float_array [| 2 |] [| 2.; 3. |]) (O.sqrt x);
  check_t "square" (Tensor.of_float_array [| 2 |] [| 16.; 81. |]) (O.square x);
  check_t "reciprocal"
    (Tensor.of_float_array [| 2 |] [| 0.25; 1.0 /. 9.0 |])
    (O.reciprocal x);
  let s = Tensor.of_float_array [| 3 |] [| -2.0; 0.0; 5.0 |] in
  check_t "sign" (Tensor.of_float_array [| 3 |] [| -1.; 0.; 1. |]) (O.sign s);
  check_t "abs" (Tensor.of_float_array [| 3 |] [| 2.; 0.; 5. |]) (O.abs s);
  check_t "relu" (Tensor.of_float_array [| 3 |] [| 0.; 0.; 5. |]) (O.relu s)

let test_modulo () =
  let a = Tensor.of_int_array [| 4 |] [| 0; 5; 10; 13 |] in
  let m = O.modulo (Tensor.cast a Dtype.I32) (Tensor.scalar_i 4) in
  Alcotest.(check (array int)) "mod" [| 0; 1; 2; 1 |] (Tensor.to_int_array m)

let test_comparisons_and_select () =
  let a = Tensor.of_float_array [| 3 |] [| 1.; 5.; 3. |] in
  let b = Tensor.of_float_array [| 3 |] [| 2.; 5.; 1. |] in
  let less = O.less a b in
  Alcotest.(check (array int)) "less" [| 1; 0; 0 |] (Tensor.to_int_array less);
  let sel = O.select (O.greater a b) a b in
  check_t "select" (Tensor.of_float_array [| 3 |] [| 2.; 5.; 3. |]) sel

let test_matmul_known () =
  let a = t2 2 3 [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = t2 3 2 [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  check_t "matmul" (t2 2 2 [| 58.; 64.; 139.; 154. |]) (O.matmul a b)

let naive_matmul ~ta ~tb a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  let m, k = if ta then (sa.(1), sa.(0)) else (sa.(0), sa.(1)) in
  let n = if tb then sb.(0) else sb.(1) in
  let get t trans i j =
    if trans then Tensor.get_f t [| j; i |] else Tensor.get_f t [| i; j |]
  in
  Tensor.init_f [| m; n |] (fun idx ->
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (get a ta idx.(0) p *. get b tb p idx.(1))
      done;
      !acc)

(* Kernel and reference both accumulate ascending p from +0.0, so they
   agree bit for bit; NaN payloads are unspecified, so any NaN matches
   any NaN. *)
let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y)

let bit_identical expected actual =
  Shape.equal (Tensor.shape expected) (Tensor.shape actual)
  && Array.for_all2 same_bits
       (Tensor.to_float_array expected)
       (Tensor.to_float_array actual)

let check_bits msg expected actual =
  if not (bit_identical expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

(* Operand fillers: dense uniform; at least 75% zeros (the kernel's
   sparse loop); uniform with a few NaN / +-inf entries. *)
let fill_dense rng n =
  Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

let fill_sparse rng n =
  let a = Array.make n 0.0 in
  Array.iter
    (fun i -> a.(i) <- Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
    (Rng.choose rng ~k:(n / 4) ~n);
  a

let fill_nonfinite rng n =
  let a = fill_dense rng n in
  let specials = [| Float.nan; Float.infinity; Float.neg_infinity |] in
  Array.iter (fun i -> a.(i) <- specials.(i mod 3)) (Rng.choose rng ~k:(min n 3) ~n);
  a

type fill = Dense | Sparse | Nonfinite

let fill = function
  | Dense -> fill_dense
  | Sparse -> fill_sparse
  | Nonfinite -> fill_nonfinite

let matmul_case_gen =
  QCheck.Gen.(
    let dim = int_range 1 37 in
    let m = frequency [ (1, return 1); (4, dim) ] in
    let k = frequency [ (1, return 0); (4, dim) ] in
    let operands =
      frequency
        [
          (3, return (Dense, Dense));
          (2, return (Sparse, Dense));
          (1, return (Dense, Nonfinite));
          (1, return (Sparse, Nonfinite));
        ]
    in
    tup4 (triple m k dim) (pair bool bool) operands (int_bound 10_000))

let prop_matmul_matches_naive =
  QCheck.Test.make ~name:"matmul matches naive reference (all transposes)"
    ~count:300
    (QCheck.make matmul_case_gen)
    (fun ((m, k, n), (ta, tb), (fa, fb), seed) ->
      let rng = Rng.create seed in
      let a_shape = if ta then [| k; m |] else [| m; k |] in
      let b_shape = if tb then [| n; k |] else [| k; n |] in
      let a = Tensor.of_float_array a_shape (fill fa rng (m * k)) in
      let b = Tensor.of_float_array b_shape (fill fb rng (k * n)) in
      bit_identical
        (naive_matmul ~ta ~tb a b)
        (O.matmul ~transpose_a:ta ~transpose_b:tb a b))

(* Skipping a = 0 swallowed NaN and inf from B: 0 * nan and 0 * inf are
   NaN under IEEE, whichever loop the kernel picks. *)
let test_matmul_nonfinite () =
  let is_nan msg t =
    Alcotest.(check bool) msg true (Float.is_nan (Tensor.flat_get_f t 0))
  in
  let row = t2 1 2 [| 0.; 1. |] in
  is_nan "0 * nan" (O.matmul row (t2 2 1 [| Float.nan; 2. |]));
  is_nan "0 * inf" (O.matmul row (t2 2 1 [| Float.infinity; 2. |]));
  is_nan "mostly-zero row * nan"
    (O.matmul (t2 1 3 [| 0.; 0.; 1. |]) (t2 3 1 [| Float.nan; 2.; 3. |]));
  let pixel = Tensor.of_float_array [| 1; 1; 1; 1 |] [| 0. |] in
  let filter = Tensor.of_float_array [| 1; 1; 1; 1 |] [| Float.nan |] in
  is_nan "conv2d 0 pixel * nan filter"
    (O.conv2d pixel filter ~strides:(1, 1) ~padding:O.Valid)

let test_transpose () =
  let a = t2 2 3 [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  check_t "2d transpose" (t2 3 2 [| 1.; 4.; 2.; 5.; 3.; 6. |]) (O.transpose a);
  let cube = Tensor.reshape (Tensor.cast (Tensor.iota 8) Dtype.F32) [| 2; 2; 2 |] in
  let p = O.transpose ~perm:[| 1; 0; 2 |] cube in
  Alcotest.(check (float 0.)) "permuted element" 2.0 (Tensor.get_f p [| 1; 0; 0 |])

let test_reductions () =
  let a = t2 2 3 [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  check_t "sum all" (Tensor.scalar_f 21.0) (O.reduce_sum a);
  check_t "sum axis0" (Tensor.of_float_array [| 3 |] [| 5.; 7.; 9. |])
    (O.reduce_sum ~axes:[ 0 ] a);
  check_t "sum axis1 keep" (t2 2 1 [| 6.; 15. |])
    (O.reduce_sum ~axes:[ 1 ] ~keep_dims:true a);
  check_t "mean" (Tensor.scalar_f 3.5) (O.reduce_mean a);
  check_t "max axis1" (Tensor.of_float_array [| 2 |] [| 3.; 6. |])
    (O.reduce_max ~axes:[ 1 ] a)

let test_argmax () =
  let a = t2 2 3 [| 1.; 9.; 3.; 8.; 5.; 6. |] in
  Alcotest.(check (array int)) "axis1" [| 1; 0 |]
    (Tensor.to_int_array (O.argmax a ~axis:1));
  Alcotest.(check (array int)) "axis0" [| 1; 0; 1 |]
    (Tensor.to_int_array (O.argmax a ~axis:0))

let test_concat_slice_split () =
  let a = t2 2 2 [| 1.; 2.; 3.; 4. |] in
  let b = t2 2 2 [| 5.; 6.; 7.; 8. |] in
  let c = O.concat [ a; b ] ~axis:0 in
  Alcotest.(check (array int)) "concat shape" [| 4; 2 |] (Tensor.shape c);
  check_t "slice back" b (O.slice c ~begin_:[| 2; 0 |] ~size:[| 2; 2 |]);
  (match O.split c ~axis:0 ~num:2 with
  | [ x; y ] ->
      check_t "split0" a x;
      check_t "split1" b y
  | _ -> Alcotest.fail "split arity");
  let c1 = O.concat [ a; b ] ~axis:1 in
  check_t "concat axis1 slice"
    (t2 2 2 [| 5.; 6.; 7.; 8. |])
    (O.slice c1 ~begin_:[| 0; 2 |] ~size:[| 2; 2 |])

let test_pad_tile () =
  let a = t2 1 2 [| 1.; 2. |] in
  let p = O.pad a ~paddings:[| (1, 0); (0, 1) |] in
  check_t "pad" (t2 2 3 [| 0.; 0.; 0.; 1.; 2.; 0. |]) p;
  let t = O.tile a ~multiples:[| 2; 2 |] in
  check_t "tile" (t2 2 4 [| 1.; 2.; 1.; 2.; 1.; 2.; 1.; 2. |]) t

let test_one_hot () =
  let idx = Tensor.of_int_array [| 3 |] [| 0; 2; 1 |] in
  let oh = O.one_hot idx ~depth:3 in
  check_t "one hot"
    (t2 3 3 [| 1.; 0.; 0.; 0.; 0.; 1.; 0.; 1.; 0. |])
    oh

let test_gather_scatter () =
  let params = t2 4 2 [| 0.; 1.; 10.; 11.; 20.; 21.; 30.; 31. |] in
  let idx = Tensor.of_int_array [| 3 |] [| 2; 0; 2 |] in
  let g = O.gather params idx in
  check_t "gather"
    (Tensor.of_float_array [| 3; 2 |] [| 20.; 21.; 0.; 1.; 20.; 21. |])
    g;
  Alcotest.check_raises "oob"
    (Invalid_argument "Tensor_ops.gather: index 9 out of range [0,4)")
    (fun () -> ignore (O.gather params (Tensor.of_int_array [| 1 |] [| 9 |])));
  let acc = Tensor.zeros Dtype.F32 [| 4; 2 |] in
  let updates = t2 3 2 [| 1.; 1.; 2.; 2.; 3.; 3. |] in
  let s = O.scatter_add acc idx updates in
  (* duplicate index 2 accumulates *)
  check_t "scatter add"
    (t2 4 2 [| 2.; 2.; 0.; 0.; 4.; 4.; 0.; 0. |])
    s

let prop_gather_scatter_adjoint =
  (* <gather(P, i), U> = <P, scatter(0, i, U)> — the adjoint identity
     underlying sparse gradients. *)
  QCheck.Test.make ~name:"gather/scatter adjoint identity" ~count:60
    QCheck.(pair (int_range 1 6) (small_list (int_range 0 5)))
    (fun (rows, idx_list) ->
      let idx_list = List.filter (fun i -> i < rows) idx_list in
      idx_list = []
      ||
      let rng = Rng.create (rows + List.length idx_list) in
      let params = Tensor.uniform rng [| rows; 3 |] ~lo:(-1.) ~hi:1. in
      let n = List.length idx_list in
      let idx = Tensor.of_int_array [| n |] (Array.of_list idx_list) in
      let updates = Tensor.uniform rng [| n; 3 |] ~lo:(-1.) ~hi:1. in
      let lhs =
        Tensor.fold_f ( +. ) 0.0 (O.mul (O.gather params idx) updates)
      in
      let scattered =
        O.scatter_add (Tensor.zeros Dtype.F32 [| rows; 3 |]) idx updates
      in
      let rhs = Tensor.fold_f ( +. ) 0.0 (O.mul params scattered) in
      Float.abs (lhs -. rhs) < 1e-6)

let prop_partition_stitch_roundtrip =
  QCheck.Test.make ~name:"dynamic partition/stitch roundtrip" ~count:80
    QCheck.(pair (int_range 1 4) (small_list (int_range 0 3)))
    (fun (num, parts) ->
      let parts = List.map (fun p -> p mod num) parts in
      parts = []
      ||
      let n = List.length parts in
      let rng = Rng.create (n + num) in
      let data = Tensor.uniform rng [| n; 2 |] ~lo:0. ~hi:1. in
      let pt = Tensor.of_int_array [| n |] (Array.of_list parts) in
      let pieces = O.dynamic_partition data pt ~num in
      let positions = Tensor.iota n in
      let pos_pieces = O.dynamic_partition positions pt ~num in
      let rebuilt = O.dynamic_stitch pos_pieces pieces in
      Tensor.approx_equal rebuilt data)

let test_conv2d_known () =
  (* 1x3x3x1 input, 2x2 sum filter, VALID: sliding-window sums. *)
  let input =
    Tensor.of_float_array [| 1; 3; 3; 1 |]
      [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |]
  in
  let filter = Tensor.ones Dtype.F32 [| 2; 2; 1; 1 |] in
  let out = O.conv2d input filter ~strides:(1, 1) ~padding:O.Valid in
  check_t "valid conv"
    (Tensor.of_float_array [| 1; 2; 2; 1 |] [| 12.; 16.; 24.; 28. |])
    out;
  let same = O.conv2d input filter ~strides:(1, 1) ~padding:O.Same in
  Alcotest.(check (array int)) "same shape" [| 1; 3; 3; 1 |]
    (Tensor.shape same)

let test_conv2d_channels () =
  (* Two input channels summed into one output via a 1x1 filter. *)
  let input =
    Tensor.of_float_array [| 1; 1; 2; 2 |] [| 1.; 10.; 2.; 20. |]
  in
  let filter = Tensor.of_float_array [| 1; 1; 2; 1 |] [| 1.; 0.5 |] in
  let out = O.conv2d input filter ~strides:(1, 1) ~padding:O.Valid in
  check_t "channel mix"
    (Tensor.of_float_array [| 1; 1; 2; 1 |] [| 6.; 12. |])
    out

(* Direct-convolution references. Each sums its terms in the order the
   im2col GEMM contracts them (filter taps (ky, kx, c) for the forward
   pass, output channels then patch positions for the input gradient,
   patch positions (b, y, x) for the filter gradient) and skips padding
   taps, whose 0 * finite terms leave a sum unchanged: so the kernels
   must match bit for bit on finite data. *)
let conv_ref_geometry ~is ~fs ~strides ~padding =
  let sh, sw = strides in
  let oh, ph = O.conv_dim ~padding ~in_size:is.(1) ~filter:fs.(0) ~stride:sh in
  let ow, pw = O.conv_dim ~padding ~in_size:is.(2) ~filter:fs.(1) ~stride:sw in
  (* Input pixel feeding output (y, x) through tap (ky, kx), if any. *)
  let src y x ky kx =
    let sy = (y * sh) + ky - ph and sx = (x * sw) + kx - pw in
    if sy >= 0 && sy < is.(1) && sx >= 0 && sx < is.(2) then Some (sy, sx)
    else None
  in
  (oh, ow, src)

let conv2d_ref input filter ~strides ~padding =
  let is = Tensor.shape input and fs = Tensor.shape filter in
  let oh, ow, src = conv_ref_geometry ~is ~fs ~strides ~padding in
  Tensor.init_f [| is.(0); oh; ow; fs.(3) |] (fun idx ->
      let b = idx.(0) and o = idx.(3) in
      let acc = ref 0.0 in
      for ky = 0 to fs.(0) - 1 do
        for kx = 0 to fs.(1) - 1 do
          match src idx.(1) idx.(2) ky kx with
          | None -> ()
          | Some (sy, sx) ->
              for c = 0 to is.(3) - 1 do
                acc :=
                  !acc
                  +. Tensor.get_f input [| b; sy; sx; c |]
                     *. Tensor.get_f filter [| ky; kx; c; o |]
              done
        done
      done;
      !acc)

let conv2d_grad_input_ref ~input_shape:is filter dy ~strides ~padding =
  let fs = Tensor.shape filter in
  let oh, ow, src = conv_ref_geometry ~is ~fs ~strides ~padding in
  let dx = Tensor.zeros Dtype.F32 is in
  for b = 0 to is.(0) - 1 do
    for y = 0 to oh - 1 do
      for x = 0 to ow - 1 do
        for ky = 0 to fs.(0) - 1 do
          for kx = 0 to fs.(1) - 1 do
            match src y x ky kx with
            | None -> ()
            | Some (sy, sx) ->
                for c = 0 to is.(3) - 1 do
                  let g = ref 0.0 in
                  for o = 0 to fs.(3) - 1 do
                    g :=
                      !g
                      +. Tensor.get_f dy [| b; y; x; o |]
                         *. Tensor.get_f filter [| ky; kx; c; o |]
                  done;
                  let at = [| b; sy; sx; c |] in
                  Tensor.flat_set_f dx (Shape.flat_index is at)
                    (Tensor.get_f dx at +. !g)
                done
          done
        done
      done
    done
  done;
  dx

let conv2d_grad_filter_ref ~filter_shape:fs input dy ~strides ~padding =
  let is = Tensor.shape input in
  let oh, ow, src = conv_ref_geometry ~is ~fs ~strides ~padding in
  Tensor.init_f fs (fun idx ->
      let ky = idx.(0) and kx = idx.(1) and c = idx.(2) and o = idx.(3) in
      let acc = ref 0.0 in
      for b = 0 to is.(0) - 1 do
        for y = 0 to oh - 1 do
          for x = 0 to ow - 1 do
            match src y x ky kx with
            | None -> ()
            | Some (sy, sx) ->
                acc :=
                  !acc
                  +. Tensor.get_f input [| b; sy; sx; c |]
                     *. Tensor.get_f dy [| b; y; x; o |]
          done
        done
      done;
      !acc)

let prop_conv2d_matches_direct =
  QCheck.Test.make
    ~name:"conv2d and both gradients match direct convolution" ~count:40
    QCheck.(
      quad
        (triple (int_range 1 2) (int_range 3 9) (int_range 1 3))
        (pair (int_range 1 7) (int_range 1 7))
        (pair (int_range 1 2) bool)
        (pair bool (int_bound 10_000)))
    (fun ((batch, size, fsize), (ic, oc), (stride, same), (sparse, seed)) ->
      let rng = Rng.create seed in
      let padding = if same then O.Same else O.Valid in
      let strides = (stride, stride) in
      let input_shape = [| batch; size; size; ic |] in
      let filter_shape = [| fsize; fsize; ic; oc |] in
      let fill_in = if sparse then fill_sparse else fill_dense in
      let input =
        Tensor.of_float_array input_shape
          (fill_in rng (Shape.numel input_shape))
      in
      let filter =
        Tensor.of_float_array filter_shape
          (fill_dense rng (Shape.numel filter_shape))
      in
      let out = O.conv2d input filter ~strides ~padding in
      let dy_shape = Tensor.shape out in
      let dy =
        Tensor.of_float_array dy_shape (fill_in rng (Shape.numel dy_shape))
      in
      bit_identical (conv2d_ref input filter ~strides ~padding) out
      && bit_identical
           (conv2d_grad_input_ref ~input_shape filter dy ~strides ~padding)
           (O.conv2d_grad_input ~input_shape filter dy ~strides ~padding)
      && bit_identical
           (conv2d_grad_filter_ref ~filter_shape input dy ~strides ~padding)
           (O.conv2d_grad_filter ~filter_shape input dy ~strides ~padding))

let test_pooling () =
  let input =
    Tensor.of_float_array [| 1; 2; 4; 1 |]
      [| 1.; 3.; 2.; 9.; 4.; 6.; 5.; 0. |]
  in
  let mp = O.max_pool input ~ksize:(2, 2) ~strides:(2, 2) ~padding:O.Valid in
  check_t "max pool" (Tensor.of_float_array [| 1; 1; 2; 1 |] [| 6.; 9. |]) mp;
  let ap = O.avg_pool input ~ksize:(2, 2) ~strides:(2, 2) ~padding:O.Valid in
  check_t "avg pool" (Tensor.of_float_array [| 1; 1; 2; 1 |] [| 3.5; 4.0 |]) ap

(* Naive pooling oracle: each output element scans its window in
   (ky, kx) order, from -inf with [Float.max] or from 0.0 with [+.] and
   then divides by the count of input cells in the window. *)
let pool_ref ~avg input ~ksize:(kh, kw) ~strides:(sh, sw) ~padding =
  let s = Tensor.shape input in
  let ih = s.(1) and iw = s.(2) in
  let dim in_size k st =
    match padding with
    | O.Valid -> (((in_size - k) / st) + 1, 0)
    | O.Same ->
        let out = (in_size + st - 1) / st in
        (out, max 0 (((out - 1) * st) + k - in_size) / 2)
  in
  let oh, ph = dim ih kh sh and ow, pw = dim iw kw sw in
  Tensor.init_f [| s.(0); oh; ow; s.(3) |] (fun idx ->
      let acc = ref (if avg then 0.0 else Float.neg_infinity) in
      let count = ref 0 in
      for ky = 0 to kh - 1 do
        for kx = 0 to kw - 1 do
          let sy = (idx.(1) * sh) + ky - ph and sx = (idx.(2) * sw) + kx - pw in
          if sy >= 0 && sy < ih && sx >= 0 && sx < iw then begin
            let v = Tensor.get_f input [| idx.(0); sy; sx; idx.(3) |] in
            acc := if avg then !acc +. v else Float.max !acc v;
            incr count
          end
        done
      done;
      if avg then !acc /. float_of_int !count else !acc)

(* (input shape, ksize, strides): odd sizes, overlapping 3x3 windows at
   stride 1, strides larger than the window, a window as large as the
   input, 1x1, and a window larger than the input. *)
let pool_cases =
  [
    ([| 2; 5; 7; 3 |], (2, 2), (2, 2));
    ([| 1; 6; 5; 2 |], (3, 3), (1, 1));
    ([| 2; 7; 9; 1 |], (2, 3), (3, 4));
    ([| 1; 4; 4; 2 |], (4, 4), (1, 1));
    ([| 1; 3; 3; 5 |], (1, 1), (2, 1));
    ([| 1; 2; 3; 2 |], (4, 5), (2, 3));
    ([| 8; 14; 14; 16 |], (2, 2), (2, 2));
  ]

let paddings = [ ("VALID", O.Valid); ("SAME", O.Same) ]

let pool_name shape (kh, kw) (sh, sw) pad =
  Printf.sprintf "%s k%dx%d s%dx%d %s" (Shape.to_string shape) kh kw sh sw pad

(* Float pooling is bit-identical to the oracle, NaNs of either sign,
   infinities and signed zeros included. *)
let test_pooling_oracle () =
  let rng = Rng.create 61 in
  let specials = [| Float.nan; -.Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity |] in
  let fills =
    [
      ("specials", fun () ->
          let r = Rng.int rng 12 in
          if r < 6 then specials.(r) else Rng.uniform rng ~lo:(-1.0) ~hi:1.0);
      ("signed zeros", fun () -> if Rng.int rng 2 = 0 then 0.0 else -0.0);
    ]
  in
  List.iter
    (fun (shape, ksize, strides) ->
      List.iter
        (fun (pad, padding) ->
          List.iter
            (fun (fill, draw) ->
              let x = Tensor.of_float_array shape (Array.init (Shape.numel shape) (fun _ -> draw ())) in
              let name op = Printf.sprintf "%s %s, %s" op (pool_name shape ksize strides pad) fill in
              check_bits (name "max_pool")
                (pool_ref ~avg:false x ~ksize ~strides ~padding)
                (O.max_pool x ~ksize ~strides ~padding);
              check_bits (name "avg_pool")
                (pool_ref ~avg:true x ~ksize ~strides ~padding)
                (O.avg_pool x ~ksize ~strides ~padding))
            fills)
        paddings)
    pool_cases

(* A random range that includes 0.0, sometimes as an end. *)
let random_range rng =
  match Rng.int rng 4 with
  | 0 -> (0.0, Rng.uniform rng ~lo:1e-6 ~hi:10.0)
  | 1 -> (-.Rng.uniform rng ~lo:1e-6 ~hi:10.0, 0.0)
  | _ -> (-.Rng.uniform rng ~lo:0.0 ~hi:10.0, Rng.uniform rng ~lo:1e-6 ~hi:10.0)

(* uint8 codes pool as the floats they decode to: dequantizing the
   pooled codes equals pooling the decoded floats, bit for bit. *)
let test_max_pool_codes () =
  let rng = Rng.create 62 in
  List.iter
    (fun (shape, ksize, strides) ->
      List.iter
        (fun (pad, padding) ->
          let codes =
            Tensor.of_bytes shape
              (Bytes.init (Shape.numel shape) (fun _ -> Char.chr (Rng.int rng 256)))
          in
          let lo, hi = random_range rng in
          let pooled = O.max_pool codes ~ksize ~strides ~padding in
          Alcotest.(check string) "codes stay uint8" "uint8"
            (Dtype.to_string (Tensor.dtype pooled));
          check_bits
            (Printf.sprintf "decode commutes, %s [%g, %g]"
               (pool_name shape ksize strides pad) lo hi)
            (O.max_pool (Octf.Quant_kernels.dequantize codes lo hi) ~ksize
               ~strides ~padding)
            (Octf.Quant_kernels.dequantize pooled lo hi))
        paddings)
    pool_cases

(* Requantizing a decoded code against its own range returns the code,
   for all 256 codes: a Quantize that follows a Dequantize of the same
   range is exact, so the optimizer may take the pair out. *)
let test_code_roundtrip () =
  let rng = Rng.create 63 in
  let codes = Tensor.of_bytes [| 256 |] (Bytes.init 256 Char.chr) in
  for _ = 1 to 200 do
    let lo, hi = random_range rng in
    let back =
      Octf.Quant_kernels.quantize_with_range
        (Octf.Quant_kernels.dequantize codes lo hi)
        lo hi
    in
    if not (Bytes.equal (Tensor.byte_buffer codes) (Tensor.byte_buffer back))
    then Alcotest.failf "codes do not round-trip over [%h, %h]" lo hi
  done

let test_max_pool_grad_routing () =
  let input =
    Tensor.of_float_array [| 1; 2; 2; 1 |] [| 1.; 4.; 3.; 2. |]
  in
  let dy = Tensor.of_float_array [| 1; 1; 1; 1 |] [| 7.0 |] in
  let g = O.max_pool_grad input dy ~ksize:(2, 2) ~strides:(2, 2) ~padding:O.Valid in
  check_t "routes to argmax"
    (Tensor.of_float_array [| 1; 2; 2; 1 |] [| 0.; 7.; 0.; 0. |])
    g

let test_softmax_rows () =
  let logits = t2 2 3 [| 1.; 1.; 1.; 0.; 100.; 0. |] in
  let sm = O.softmax logits in
  Alcotest.(check (float 1e-6)) "uniform row" (1.0 /. 3.0)
    (Tensor.get_f sm [| 0; 0 |]);
  Alcotest.(check (float 1e-6)) "peaked row" 1.0 (Tensor.get_f sm [| 1; 1 |]);
  (* rows sum to 1 *)
  let sums = O.reduce_sum ~axes:[ 1 ] sm in
  check_t "rows sum to one" (Tensor.ones Dtype.F32 [| 2 |]) sums

let test_cross_entropy () =
  let logits = t2 1 3 [| 0.; 0.; 0. |] in
  let labels = t2 1 3 [| 1.; 0.; 0. |] in
  let ce = O.softmax_cross_entropy ~logits ~labels in
  Alcotest.(check (float 1e-6)) "uniform ce" (log 3.0) (Tensor.flat_get_f ce 0);
  let g = O.softmax_cross_entropy_grad ~logits ~labels in
  check_t "grad = softmax - labels"
    (t2 1 3 [| (1. /. 3.) -. 1.; 1. /. 3.; 1. /. 3. |])
    g

let prop_softmax_invariant_to_shift =
  QCheck.Test.make ~name:"softmax shift invariance" ~count:50
    QCheck.(pair (int_range 1 4) (float_range (-10.) 10.))
    (fun (cols, shift) ->
      let rng = Rng.create cols in
      let x = Tensor.uniform rng [| 2; cols |] ~lo:(-3.) ~hi:3. in
      let shifted = O.add x (Tensor.scalar_f shift) in
      Tensor.approx_equal ~tol:1e-6 (O.softmax x) (O.softmax shifted))

let test_broadcast_to () =
  let row = Tensor.of_float_array [| 2 |] [| 1.; 2. |] in
  let b = O.broadcast_to row [| 3; 2 |] in
  check_t "broadcast_to" (t2 3 2 [| 1.; 2.; 1.; 2.; 1.; 2. |]) b

(* Scalar and trailing-suffix operands take a direct-indexing path in
   map2; it must give the bits of the same op on a materialized
   broadcast, on either side, and in place over the full operand. *)
let test_broadcast_fast_path () =
  let shape = [| 3; 4; 5 |] in
  let m = Tensor.of_float_array shape (fill_dense (Rng.create 7) 60) in
  List.iter
    (fun (name, small_shape) ->
      let small =
        Tensor.of_float_array small_shape
          (fill_dense (Rng.create 8) (Shape.numel small_shape))
      in
      let full = O.broadcast_to small shape in
      check_bits (name ^ " right") (O.sub m full) (O.sub m small);
      check_bits (name ^ " left") (O.sub full m) (O.sub small m);
      let dst = Tensor.copy m in
      check_bits (name ^ " in place") (O.sub m full)
        (O.sub ~out:(Tensor.float_buffer dst) dst small))
    [
      ("scalar", [||]);
      ("[1]", [| 1 |]);
      ("suffix [5]", [| 5 |]);
      ("suffix [4;5]", [| 4; 5 |]);
      ("[1;1;5]", [| 1; 1; 5 |]);
      ("general [4;1]", [| 4; 1 |]);
    ]

(* ------------------------------------------------------------------ *)
(* Run-copy im2col, the k-blocked GEMM and typed reductions, each     *)
(* checked bit for bit at 1, 2 and 4 intra-op threads                 *)
(* ------------------------------------------------------------------ *)

let at_budgets f =
  let saved = Parallel.threads () in
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) @@ fun () ->
  List.iter
    (fun t ->
      Parallel.set_threads t;
      f t)
    [ 1; 2; 4 ]

(* One value per element, decoded per tap: no run-copy shortcut. *)
let im2col_ref din ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~sh ~sw ~ph ~pw ~rows =
  let kdim = fh * fw * ic in
  Array.init (rows * kdim) (fun i ->
      let rix = i / kdim and t = i mod kdim in
      let x = rix mod ow and y = rix / ow mod oh and b = rix / (ow * oh) in
      let ky = t / (fw * ic) and kx = t / ic mod fw and c = t mod ic in
      let sy = (y * sh) + ky - ph and sx = (x * sw) + kx - pw in
      if sy >= 0 && sy < ih && sx >= 0 && sx < iw then
        din.((((((b * ih) + sy) * iw) + sx) * ic) + c)
      else 0.0)

(* Leave a garbage buffer of [n] floats in the pool, so a kernel that
   takes its output with [~zero:false] and skips an element shows it. *)
let poison_pool n =
  let junk = Buffer_pool.alloc_float n in
  Array.fill junk 0 n Float.nan;
  Buffer_pool.release_float junk

let test_im2col_runs () =
  (* (name, images, ih, iw, ic, fh, fw, sh, sw, ph, pw): a filter wider
     than the input, a stride past the filter, padding wide enough that
     whole windows miss the input (kx1 <= kx0), and conv1's geometry. *)
  let cases =
    [
      ("filter wider than input", 2, 3, 2, 2, 5, 5, 1, 1, 2, 2);
      ("stride past the filter", 2, 11, 10, 3, 2, 2, 3, 3, 0, 0);
      ("windows outside the input", 1, 3, 3, 2, 2, 2, 1, 1, 4, 4);
      ("conv1", 2, 28, 28, 1, 5, 5, 1, 1, 2, 2);
    ]
  in
  let rng = Rng.create 41 in
  at_budgets @@ fun t ->
  List.iter
    (fun (name, images, ih, iw, ic, fh, fw, sh, sw, ph, pw) ->
      let oh = ((ih + (2 * ph) - fh) / sh) + 1
      and ow = ((iw + (2 * pw) - fw) / sw) + 1 in
      let rows = images * oh * ow in
      let din = fill_dense rng (images * ih * iw * ic) in
      poison_pool (rows * fh * fw * ic);
      let got =
        O.im2col din ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~sh ~sw ~ph ~pw ~rows
      and want =
        im2col_ref din ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~sh ~sw ~ph ~pw ~rows
      in
      if
        not
          (Array.length got = Array.length want
          && Array.for_all2 same_bits want got)
      then
        Alcotest.failf "im2col %s, %d threads: differs from per-tap copy" name
          t)
    cases

let test_im2col_short_input () =
  let raises = ref false in
  (try
     ignore
       (O.im2col (Array.make 17 1.0) ~ih:3 ~iw:3 ~ic:2 ~fh:2 ~fw:2 ~oh:2 ~ow:2
          ~sh:1 ~sw:1 ~ph:0 ~pw:0 ~rows:4)
   with Invalid_argument _ -> raises := true);
  Alcotest.(check bool) "17 floats for one 3x3x2 image" true !raises

(* Filter gradients with k (the patch positions) past two 128-row
   blocks, an odd m (fh*fw*ic = 25), n = oc mod 4 <> 0, at stride 1 SAME
   and stride 2 VALID; the other two kernels on the same shapes. *)
let test_conv_long_k () =
  let rng = Rng.create 43 in
  let shapes =
    [
      ("SAME stride 1", [| 8; 28; 28; 1 |], [| 5; 5; 1; 7 |], 1, O.Same);
      ("VALID stride 2", [| 8; 28; 28; 1 |], [| 5; 5; 1; 6 |], 2, O.Valid);
      ("VALID stride 2, ic 3", [| 2; 15; 13; 3 |], [| 3; 3; 3; 5 |], 2,
       O.Valid);
    ]
  in
  let cases =
    List.map
      (fun (name, is, fs, stride, padding) ->
        let strides = (stride, stride) in
        let input =
          Tensor.of_float_array is (fill_sparse rng (Shape.numel is))
        and filter =
          Tensor.of_float_array fs (fill_dense rng (Shape.numel fs))
        in
        let out = O.conv2d input filter ~strides ~padding in
        let dy =
          Tensor.of_float_array (Tensor.shape out)
            (fill_dense rng (Tensor.numel out))
        in
        ( name,
          input,
          filter,
          dy,
          strides,
          padding,
          conv2d_ref input filter ~strides ~padding,
          conv2d_grad_filter_ref ~filter_shape:fs input dy ~strides ~padding,
          conv2d_grad_input_ref ~input_shape:is filter dy ~strides ~padding ))
      shapes
  in
  at_budgets @@ fun t ->
  List.iter
    (fun (name, input, filter, dy, strides, padding, fwd, dfilter, dinput) ->
      let msg what = Printf.sprintf "%s %s, %d threads" what name t in
      check_bits (msg "conv2d") fwd (O.conv2d input filter ~strides ~padding);
      check_bits (msg "grad filter") dfilter
        (O.conv2d_grad_filter ~filter_shape:(Tensor.shape filter) input dy
           ~strides ~padding);
      check_bits (msg "grad input") dinput
        (O.conv2d_grad_input ~input_shape:(Tensor.shape input) filter dy
           ~strides ~padding))
    cases

(* A NaN and an infinity in dy against a mostly-zero input: the filter
   gradient is cols^T dy over every patch position, zero taps included,
   so 0 * nan and 0 * inf must come out NaN as in a naive triple loop. *)
let test_conv_grad_filter_nonfinite () =
  let rng = Rng.create 47 in
  let is = [| 2; 20; 20; 2 |] and fs = [| 3; 3; 2; 5 |] in
  let input = Tensor.of_float_array is (fill_sparse rng (Shape.numel is)) in
  let oh = 18 and ow = 18 in
  let rows = 2 * oh * ow and kdim = 18 in
  let dy_data = fill_dense rng (rows * 5) in
  dy_data.(7 * 5) <- Float.nan;
  dy_data.((300 * 5) + 3) <- Float.infinity;
  let dy = Tensor.of_float_array [| 2; oh; ow; 5 |] dy_data in
  let cols =
    O.im2col (Tensor.float_buffer input) ~ih:20 ~iw:20 ~ic:2 ~fh:3 ~fw:3 ~oh
      ~ow ~sh:1 ~sw:1 ~ph:0 ~pw:0 ~rows
  in
  let want =
    Tensor.reshape
      (naive_matmul ~ta:false ~tb:false
         (O.transpose (t2 rows kdim (Array.copy cols)))
         (t2 rows 5 dy_data))
      fs
  in
  at_budgets @@ fun t ->
  let got =
    O.conv2d_grad_filter ~filter_shape:fs input dy ~strides:(1, 1)
      ~padding:O.Valid
  in
  check_bits (Printf.sprintf "grad filter, %d threads" t) want got;
  let column o =
    List.init kdim (fun f -> Tensor.flat_get_f got ((f * 5) + o))
  in
  Alcotest.(check bool) "nan column all NaN" true
    (List.for_all Float.is_nan (column 0));
  Alcotest.(check bool) "inf column has 0 * inf = NaN" true
    (List.exists Float.is_nan (column 3))

(* The order a serial scan folds in: every input element, ascending flat
   index, into the slot its kept coordinates name. *)
let reduce_ref kind ~axes ~keep_dims x =
  let is = Tensor.shape x in
  let r = Array.length is in
  let reduced = Array.make r (axes = []) in
  List.iter (fun a -> reduced.(Shape.normalize_axis is a) <- true) axes;
  let os = Shape.reduce ~keep_dims is axes in
  let count =
    Array.fold_left ( * ) 1
      (Array.of_list (List.filteri (fun d _ -> reduced.(d)) (Array.to_list is)))
  in
  let out =
    Array.make (Shape.numel os)
      (if kind = `Max then Float.neg_infinity else 0.0)
  in
  let kept =
    Array.of_list (List.filter (fun d -> not reduced.(d)) (List.init r Fun.id))
  in
  let kept_shape = Array.map (fun d -> is.(d)) kept in
  for i = 0 to Tensor.numel x - 1 do
    let idx = Shape.multi_index is i in
    let o = Shape.flat_index kept_shape (Array.map (fun d -> idx.(d)) kept) in
    let v = Tensor.flat_get_f x i in
    out.(o) <- (if kind = `Max then Float.max out.(o) v else out.(o) +. v)
  done;
  if kind = `Mean && count > 0 then
    Array.iteri (fun o v -> out.(o) <- v /. float_of_int count) out;
  Tensor.of_float_array os out

let test_reductions_typed () =
  let rng = Rng.create 53 in
  let data n =
    let a = fill_dense rng n in
    (* Signed zeros and a NaN, so max's ordering and NaN rules show. *)
    if n > 3 then begin
      a.(0) <- -0.0;
      a.(1) <- 0.0;
      a.(n - 1) <- Float.nan
    end;
    a
  in
  let cases =
    [
      ([| 3; 4; 5 |], [ 0 ]);
      ([| 3; 4; 5 |], [ 0; 1 ]);
      ([| 3; 4; 5 |], [ 1 ]);
      ([| 3; 4; 5 |], [ 2 ]);
      ([| 3; 4; 5 |], [ 0; 2 ]);
      ([| 3; 4; 5 |], [ -1 ]);
      ([| 3; 4; 5 |], [ 1; 1 ]);
      ([| 3; 4; 5 |], [ -3; 0 ]);
      ([| 3; 4; 5 |], [ 2; 0; 1 ]);
      ([| 3; 4; 5 |], []);
      ([| 8; 28; 28; 8 |], [ 0; 1; 2 ]);
      ([| 2; 70; 3; 40 |], [ 1; 3 ]);
      ([| 0; 3 |], [ 0 ]);
      ([| 3; 0 |], [ 1 ]);
      ([| 2; 0; 3 |], [ 1 ]);
      ([| 2; 0; 3 |], [ 0 ]);
      ([||], []);
    ]
  in
  let inputs =
    List.map
      (fun (shape, axes) ->
        (shape, axes, Tensor.of_float_array shape (data (Shape.numel shape))))
      cases
  in
  at_budgets @@ fun t ->
  List.iter
    (fun (shape, axes, x) ->
      List.iter
        (fun keep_dims ->
          List.iter
            (fun (kind, name, f) ->
              check_bits
                (Printf.sprintf "%s %s axes [%s] keep_dims %b, %d threads" name
                   (Shape.to_string shape)
                   (String.concat ";" (List.map string_of_int axes))
                   keep_dims t)
                (reduce_ref kind ~axes ~keep_dims x)
                (f ?axes:(Some axes) ?keep_dims:(Some keep_dims) x))
            [
              (`Sum, "sum", O.reduce_sum);
              (`Mean, "mean", O.reduce_mean);
              (`Max, "max", O.reduce_max);
            ])
        [ false; true ])
    inputs

let suite =
  [
    Alcotest.test_case "elementwise" `Quick test_elementwise;
    Alcotest.test_case "unary math" `Quick test_unary_math;
    Alcotest.test_case "modulo" `Quick test_modulo;
    Alcotest.test_case "comparisons/select" `Quick test_comparisons_and_select;
    Alcotest.test_case "matmul known" `Quick test_matmul_known;
    Alcotest.test_case "matmul NaN and inf" `Quick test_matmul_nonfinite;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "reductions" `Quick test_reductions;
    Alcotest.test_case "argmax" `Quick test_argmax;
    Alcotest.test_case "concat/slice/split" `Quick test_concat_slice_split;
    Alcotest.test_case "pad/tile" `Quick test_pad_tile;
    Alcotest.test_case "one hot" `Quick test_one_hot;
    Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
    Alcotest.test_case "conv2d known" `Quick test_conv2d_known;
    Alcotest.test_case "conv2d channels" `Quick test_conv2d_channels;
    Alcotest.test_case "pooling" `Quick test_pooling;
    Alcotest.test_case "pooling oracle" `Quick test_pooling_oracle;
    Alcotest.test_case "max pool on codes" `Quick test_max_pool_codes;
    Alcotest.test_case "codes round-trip" `Quick test_code_roundtrip;
    Alcotest.test_case "max pool grad" `Quick test_max_pool_grad_routing;
    Alcotest.test_case "softmax rows" `Quick test_softmax_rows;
    Alcotest.test_case "cross entropy" `Quick test_cross_entropy;
    Alcotest.test_case "broadcast_to" `Quick test_broadcast_to;
    Alcotest.test_case "broadcast fast path" `Quick test_broadcast_fast_path;
    QCheck_alcotest.to_alcotest prop_matmul_matches_naive;
    QCheck_alcotest.to_alcotest prop_conv2d_matches_direct;
    QCheck_alcotest.to_alcotest prop_gather_scatter_adjoint;
    QCheck_alcotest.to_alcotest prop_partition_stitch_roundtrip;
    QCheck_alcotest.to_alcotest prop_softmax_invariant_to_shift;
    Alcotest.test_case "im2col runs match per-tap copy" `Quick test_im2col_runs;
    Alcotest.test_case "im2col rejects a short input" `Quick
      test_im2col_short_input;
    Alcotest.test_case "conv kernels past two k-blocks" `Quick test_conv_long_k;
    Alcotest.test_case "grad filter: 0 * nan and 0 * inf" `Quick
      test_conv_grad_filter_nonfinite;
    Alcotest.test_case "typed reductions match serial scan" `Quick
      test_reductions_typed;
  ]
