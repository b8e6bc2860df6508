module T = Tensor

(* Pick a parallel-for grain so each shard carries at least [target_work]
   elementary operations when one item of the sharded loop costs
   [item_cost]; loops cheaper than one grain run inline. *)
let grain_for ~item_cost ~target_work = max 1 (target_work / max 1 item_cost)

(* Elementwise ops are one-op programs of the elementwise engine,
   compiled once here. They take [?out] so kernels granted an in-place
   buffer by the executor's memory planner can reuse an input's backing
   store (see Fused_eval.run for the aliasing discipline). *)
let unary op =
  let p = Fused_eval.(compile (Unary (op, Input 0))) in
  fun ?out t -> Fused_eval.run ?out p [| t |]

let binary op =
  let p = Fused_eval.(compile (Binary (op, Input 0, Input 1))) in
  fun ?out a b -> Fused_eval.run ?out p [| a; b |]

let comparison op =
  let p = Fused_eval.(compile (Binary (op, Input 0, Input 1))) in
  fun a b -> Fused_eval.run p [| a; b |]

let add = binary "Add"

let sub = binary "Sub"

let mul = binary "Mul"

let div = binary "Div"

let maximum = binary "Maximum"

let minimum = binary "Minimum"

let pow = binary "Pow"

let modulo = binary "Mod"

let neg = unary "Neg"

let abs = unary "Abs"

let sign = unary "Sign"

let exp = unary "Exp"

let log = unary "Log"

let sqrt = unary "Sqrt"

let square = unary "Square"

let reciprocal = unary "Reciprocal"

let relu = unary "Relu"

let relu_grad = binary "ReluGrad"

let sigmoid = unary "Sigmoid"

let tanh = unary "Tanh"

let equal = comparison "Equal"

let less = comparison "Less"

let greater = comparison "Greater"

let greater_equal = comparison "GreaterEqual"

(* One broadcast-indexed pass allocating only the output — the previous
   implementation materialized three full-size temporaries (and cast the
   bool condition through the value dtype). A non-zero condition element
   selects from [a]. *)
let select cond a b =
  let out_shape =
    Shape.broadcast (Shape.broadcast (T.shape cond) (T.shape a)) (T.shape b)
  in
  let ic = T.broadcast_index cond out_shape
  and ia = T.broadcast_index a out_shape
  and ib = T.broadcast_index b out_shape in
  let n = Shape.numel out_shape in
  let out = T.zeros (T.dtype a) out_shape in
  Parallel.parallel_for ~grain:4096 n (fun lo hi ->
      for i = lo to hi - 1 do
        T.flat_set_f out i
          (if T.flat_get_f cond (ic i) <> 0.0 then T.flat_get_f a (ia i)
           else T.flat_get_f b (ib i))
      done);
  out

(* Register-blocked GEMM: out[m x n] = A[m x k] * B[k x n].

   A is read as [a.(i*ars + p*aps)] and B as [b.(p*bps + j*bcs)], so a
   transposed operand is a stride swap, never a copy. Every output
   element is one float accumulator that starts at +0.0 and adds
   A[i,p]*B[p,j] in ascending p over the full k: the same operation
   sequence as a naive dot product, whatever the tile, block, shard or
   thread count, so results are bit-identical at every budget.

   Dense inputs run a 2x4 tile (eight accumulators, which stay in
   registers; a 4x4 tile spills), with narrower 2x1, 1x4 and 1x1 tiles
   of the same loop for the last n mod 4 columns and an odd last row.
   Each tile call covers the k range [p0, p0 + kb): it starts from +0.0
   when p0 = 0 and otherwise resumes from the partial sums an earlier
   call stored in [out] (a stored and reloaded float is unchanged, so
   splitting k into blocks keeps every bit).

   A column-strided A (aps > 1: the cols^T of Conv2DGradFilter, or a
   transposed MatMul operand) walks k in blocks of [k_block] rows: every
   tile of a shard finishes one block before any starts the next, so the
   block of A and of B stays in cache instead of each 2x4 tile streaming
   all k rows of A again. A row-contiguous A runs k as one block.

   When the sparse loop pays (see [sparse_pays]) and B is all finite,
   each row of a row-contiguous A runs 1x4 and 1x1 tiles over only its
   nonzero entries. Skipping a = 0 drops terms 0*b = +-0.0, which leave
   the accumulator unchanged exactly when b is finite (the accumulator
   is never -0.0), so both loops give the same bits; with a NaN or infinite b the dense loop runs and
   0*b = NaN propagates as IEEE requires. *)

let[@inline] gemm_init (out : float array) o p0 =
  if p0 = 0 then 0.0 else Array.unsafe_get out o

let gemm_tile_2x4 (a : float array) ars aps (b : float array) bps bcs
    (out : float array) n p0 kb i j =
  let o0 = (i * n) + j in
  let o1 = o0 + n in
  let c00 = ref (gemm_init out o0 p0)
  and c01 = ref (gemm_init out (o0 + 1) p0)
  and c02 = ref (gemm_init out (o0 + 2) p0)
  and c03 = ref (gemm_init out (o0 + 3) p0) in
  let c10 = ref (gemm_init out o1 p0)
  and c11 = ref (gemm_init out (o1 + 1) p0)
  and c12 = ref (gemm_init out (o1 + 2) p0)
  and c13 = ref (gemm_init out (o1 + 3) p0) in
  let pa = ref ((i * ars) + (p0 * aps)) in
  let pb = ref ((p0 * bps) + (j * bcs)) in
  for _ = 1 to kb do
    let a0 = !pa and b0 = !pb in
    let b1 = b0 + bcs in
    let b2 = b1 + bcs in
    let b3 = b2 + bcs in
    let y0 = Array.unsafe_get b b0 and y1 = Array.unsafe_get b b1 in
    let y2 = Array.unsafe_get b b2 and y3 = Array.unsafe_get b b3 in
    let x = Array.unsafe_get a a0 in
    c00 := !c00 +. (x *. y0);
    c01 := !c01 +. (x *. y1);
    c02 := !c02 +. (x *. y2);
    c03 := !c03 +. (x *. y3);
    let x = Array.unsafe_get a (a0 + ars) in
    c10 := !c10 +. (x *. y0);
    c11 := !c11 +. (x *. y1);
    c12 := !c12 +. (x *. y2);
    c13 := !c13 +. (x *. y3);
    pa := a0 + aps;
    pb := b0 + bps
  done;
  Array.unsafe_set out o0 !c00;
  Array.unsafe_set out (o0 + 1) !c01;
  Array.unsafe_set out (o0 + 2) !c02;
  Array.unsafe_set out (o0 + 3) !c03;
  Array.unsafe_set out o1 !c10;
  Array.unsafe_set out (o1 + 1) !c11;
  Array.unsafe_set out (o1 + 2) !c12;
  Array.unsafe_set out (o1 + 3) !c13

let gemm_tile_2x1 (a : float array) ars aps (b : float array) bps bcs
    (out : float array) n p0 kb i j =
  let o0 = (i * n) + j in
  let o1 = o0 + n in
  let c0 = ref (gemm_init out o0 p0) and c1 = ref (gemm_init out o1 p0) in
  let pa = ref ((i * ars) + (p0 * aps)) in
  let pb = ref ((p0 * bps) + (j * bcs)) in
  for _ = 1 to kb do
    let a0 = !pa and y = Array.unsafe_get b !pb in
    c0 := !c0 +. (Array.unsafe_get a a0 *. y);
    c1 := !c1 +. (Array.unsafe_get a (a0 + ars) *. y);
    pa := a0 + aps;
    pb := !pb + bps
  done;
  Array.unsafe_set out o0 !c0;
  Array.unsafe_set out o1 !c1

let gemm_tile_1x4 (a : float array) ars aps (b : float array) bps bcs
    (out : float array) n p0 kb i j =
  let o = (i * n) + j in
  let c0 = ref (gemm_init out o p0)
  and c1 = ref (gemm_init out (o + 1) p0)
  and c2 = ref (gemm_init out (o + 2) p0)
  and c3 = ref (gemm_init out (o + 3) p0) in
  let pa = ref ((i * ars) + (p0 * aps)) in
  let pb = ref ((p0 * bps) + (j * bcs)) in
  for _ = 1 to kb do
    let x = Array.unsafe_get a !pa and b0 = !pb in
    let b1 = b0 + bcs in
    let b2 = b1 + bcs in
    let b3 = b2 + bcs in
    c0 := !c0 +. (x *. Array.unsafe_get b b0);
    c1 := !c1 +. (x *. Array.unsafe_get b b1);
    c2 := !c2 +. (x *. Array.unsafe_get b b2);
    c3 := !c3 +. (x *. Array.unsafe_get b b3);
    pa := !pa + aps;
    pb := b0 + bps
  done;
  Array.unsafe_set out o !c0;
  Array.unsafe_set out (o + 1) !c1;
  Array.unsafe_set out (o + 2) !c2;
  Array.unsafe_set out (o + 3) !c3

let gemm_tile_1x1 (a : float array) ars aps (b : float array) bps bcs
    (out : float array) n p0 kb i j =
  let o = (i * n) + j in
  let c = ref (gemm_init out o p0) in
  let pa = ref ((i * ars) + (p0 * aps)) in
  let pb = ref ((p0 * bps) + (j * bcs)) in
  for _ = 1 to kb do
    c := !c +. (Array.unsafe_get a !pa *. Array.unsafe_get b !pb);
    pa := !pa + aps;
    pb := !pb + bps
  done;
  Array.unsafe_set out o !c

(* One dense row pair (or the last row alone when m is odd) over the k
   range [p0, p0 + kb). *)
let gemm_dense_rows a ars aps b bps bcs out m n p0 kb i =
  let n4 = n - (n mod 4) in
  let j = ref 0 in
  if i + 1 < m then begin
    while !j < n4 do
      gemm_tile_2x4 a ars aps b bps bcs out n p0 kb i !j;
      j := !j + 4
    done;
    for j = n4 to n - 1 do
      gemm_tile_2x1 a ars aps b bps bcs out n p0 kb i j
    done
  end
  else begin
    while !j < n4 do
      gemm_tile_1x4 a ars aps b bps bcs out n p0 kb i !j;
      j := !j + 4
    done;
    for j = n4 to n - 1 do
      gemm_tile_1x1 a ars aps b bps bcs out n p0 kb i j
    done
  end

(* Rows of k per block when A is column-strided, chosen by measurement
   like a BLAS's kc: every size from 32 to 512 ran conv1's 25x6272x8
   filter gradient about 7% faster than one block, and 128 was at least
   as fast as the others on conv2's 200x1568x16 (EXPERIMENTS.md). *)
let k_block = 128

(* The sparse loop packs row i of A as its [nz] nonzero entries, in
   ascending p: [vals] holds A[i,p] and [boffs] the offset p*bps of the
   matching B row. The 1x4 and 1x1 row tiles then run over those only. *)
let gemm_pack_nonzeros (a : float array) ars aps bps k i (boffs : int array)
    (vals : float array) =
  let nz = ref 0 and pa = ref (i * ars) in
  for p = 0 to k - 1 do
    let x = Array.unsafe_get a !pa in
    if x <> 0.0 then begin
      Array.unsafe_set boffs !nz (p * bps);
      Array.unsafe_set vals !nz x;
      incr nz
    end;
    pa := !pa + aps
  done;
  !nz

let gemm_sparse_1x4 (boffs : int array) (vals : float array) nz
    (b : float array) bcs (out : float array) n i j =
  let c0 = ref 0.0 and c1 = ref 0.0 and c2 = ref 0.0 and c3 = ref 0.0 in
  let jb = j * bcs in
  for q = 0 to nz - 1 do
    let x = Array.unsafe_get vals q in
    let b0 = Array.unsafe_get boffs q + jb in
    let b1 = b0 + bcs in
    let b2 = b1 + bcs in
    let b3 = b2 + bcs in
    c0 := !c0 +. (x *. Array.unsafe_get b b0);
    c1 := !c1 +. (x *. Array.unsafe_get b b1);
    c2 := !c2 +. (x *. Array.unsafe_get b b2);
    c3 := !c3 +. (x *. Array.unsafe_get b b3)
  done;
  let o = (i * n) + j in
  Array.unsafe_set out o !c0;
  Array.unsafe_set out (o + 1) !c1;
  Array.unsafe_set out (o + 2) !c2;
  Array.unsafe_set out (o + 3) !c3

let gemm_sparse_1x1 (boffs : int array) (vals : float array) nz
    (b : float array) bcs (out : float array) n i j =
  let c = ref 0.0 and jb = j * bcs in
  for q = 0 to nz - 1 do
    c :=
      !c
      +. (Array.unsafe_get vals q
         *. Array.unsafe_get b (Array.unsafe_get boffs q + jb))
  done;
  Array.unsafe_set out ((i * n) + j) !c

let gemm_sparse_row a ars aps b bps bcs out n k i boffs vals =
  let nz = gemm_pack_nonzeros a ars aps bps k i boffs vals in
  let n4 = n - (n mod 4) in
  let j = ref 0 in
  while !j < n4 do
    gemm_sparse_1x4 boffs vals nz b bcs out n i !j;
    j := !j + 4
  done;
  for j = n4 to n - 1 do
    gemm_sparse_1x1 boffs vals nz b bcs out n i j
  done

(* The unchecked accessors above rely on these bounds: every index a
   tile can form lies inside its buffer. *)
let check_operand what len rows cols rs cs =
  if rs < 0 || cs < 0 then
    invalid_arg (Printf.sprintf "Tensor_ops.gemm: negative %s stride" what);
  if rows > 0 && cols > 0 && ((rows - 1) * rs) + ((cols - 1) * cs) >= len then
    invalid_arg
      (Printf.sprintf "Tensor_ops.gemm: %s buffer of %d too short for %dx%d"
         what len rows cols)

(* The sparse loop packs each row of A, which costs about 8 dense
   multiply-adds per entry, and its 1x4 tiles do about half the dense
   2x4 tiles' work per second. It pays when 8 m k + 2 nnz(A) n < m k n:
   never at n <= 8, above 75% zeros at n = 16, 62.5% at n = 32, and
   just over half at large n (measured at the train_convnet GEMM shapes
   with 55, 75 and 95% zeros, EXPERIMENTS.md). The zero census is
   branch-free: at mixed zero shares a branch per entry mispredicts so
   often that counting cost as much as the dense GEMM itself. *)
let sparse_pays (a : float array) ars aps m k n =
  n > 8
  &&
  let zeros = ref 0 in
  for i = 0 to m - 1 do
    let pa = ref (i * ars) in
    for _ = 1 to k do
      zeros := !zeros + Bool.to_int (Array.unsafe_get a !pa = 0.0);
      pa := !pa + aps
    done
  done;
  let mk = m * k in
  (8 * mk) + (2 * (mk - !zeros) * n) < mk * n

let all_finite (b : float array) bps bcs k n =
  let ok = ref true and p = ref 0 in
  while !ok && !p < k do
    let pb = !p * bps in
    for j = 0 to n - 1 do
      if not (Float.is_finite (Array.unsafe_get b (pb + (j * bcs)))) then
        ok := false
    done;
    incr p
  done;
  !ok

let gemm ~m ~k ~n (a, ars, aps) (b, bps, bcs) =
  if m < 0 || k < 0 || n < 0 then invalid_arg "Tensor_ops.gemm: negative dim";
  check_operand "A" (Array.length a) m k ars aps;
  check_operand "B" (Array.length b) k n bps bcs;
  let out = Buffer_pool.alloc_float ~zero:false (m * n) in
  let column_strided = aps > 1 in
  if m > 0 && n > 0 then
    if
      (not column_strided) && k > 0
      && sparse_pays a ars aps m k n
      && all_finite b bps bcs k n
    then
      Parallel.parallel_for
        ~grain:(grain_for ~item_cost:(k * n) ~target_work:32768)
        m
        (fun lo hi ->
          let boffs = Array.make k 0 and vals = Array.make k 0.0 in
          for i = lo to hi - 1 do
            gemm_sparse_row a ars aps b bps bcs out n k i boffs vals
          done)
    else begin
      (* k = 0 still runs one empty block, which stores the +0.0 sums. *)
      let kb = max 1 (if column_strided then min k k_block else k) in
      let blocks = max 1 ((k + kb - 1) / kb) in
      Parallel.parallel_for
        ~grain:(grain_for ~item_cost:(2 * k * n) ~target_work:32768)
        ((m + 1) / 2)
        (fun lo hi ->
          for blk = 0 to blocks - 1 do
            let p0 = blk * kb in
            let kb = min kb (k - p0) in
            for g = lo to hi - 1 do
              gemm_dense_rows a ars aps b bps bcs out m n p0 kb (2 * g)
            done
          done)
    end;
  out

(* (buffer, row stride, column stride) that read [buf] as a [rows x cols]
   matrix stored row-major, or stored as its row-major [cols x rows]
   transpose when [transposed]. *)
let operand ~transposed buf rows cols =
  if transposed then (buf, 1, rows) else (buf, cols, 1)

let matmul ?(transpose_a = false) ?(transpose_b = false) a b =
  if T.rank a <> 2 || T.rank b <> 2 then
    invalid_arg "Tensor_ops.matmul: operands must be 2-D";
  let sa = T.shape a and sb = T.shape b in
  let m, k = if transpose_a then (sa.(1), sa.(0)) else (sa.(0), sa.(1)) in
  let k2, n = if transpose_b then (sb.(1), sb.(0)) else (sb.(0), sb.(1)) in
  if k <> k2 then
    invalid_arg
      (Printf.sprintf "Tensor_ops.matmul: inner dims %d vs %d" k k2);
  let out =
    gemm ~m ~k ~n
      (operand ~transposed:transpose_a (T.float_buffer a) m k)
      (operand ~transposed:transpose_b (T.float_buffer b) k n)
  in
  T.of_float_array ~dtype:(T.dtype a) [| m; n |] out

let transpose ?perm t =
  let r = T.rank t in
  let perm =
    match perm with
    | Some p -> p
    | None -> Array.init r (fun i -> r - 1 - i)
  in
  if List.sort compare (Array.to_list perm) <> List.init r Fun.id then
    invalid_arg "Tensor_ops.transpose: perm is not a permutation of the axes";
  let in_shape = T.shape t in
  let in_strides = Shape.strides in_shape in
  let out_shape = Array.map (fun d -> in_shape.(d)) perm in
  let out = T.empty (T.dtype t) out_shape in
  T.blit_strided ~src:t ~src_off:0
    ~src_strides:(Array.map (fun d -> in_strides.(d)) perm)
    ~dst:out ~dst_off:0 ~dst_strides:(Shape.strides out_shape) out_shape;
  out

(* [Float.max], with the ordered cases decided before its sign-bit test. *)
let[@inline] fmax x y =
  if y > x then y
  else if x > y || (x = y && x <> 0.0) then x
  else Float.max x y

(* Reductions fold each output slot's elements in ascending flat-index
   order, from +0.0 for a sum or mean and -inf for a max: the order of a
   serial scan, so slots are independent and any shard layout gives the
   same bits. When the reduced axes are a leading prefix (bias
   gradients, SumToShape), the input is [count] rows of [nout] slots and
   the slots accumulate row after row, one unit-stride pass per row.
   Otherwise each slot walks its reduced sub-space: an odometer over the
   outer reduced axes around a strided run of the innermost one. *)
type reduction = Sum | Mean | Max

let reduce kind ?(axes = []) ?(keep_dims = false) t =
  let src = T.float_buffer t in
  let in_shape = T.shape t in
  let out_shape = Shape.reduce ~keep_dims in_shape axes in
  let r = Shape.rank in_shape in
  let reduced = Array.make r (axes = []) in
  List.iter (fun a -> reduced.(Shape.normalize_axis in_shape a) <- true) axes;
  let in_strides = Shape.strides in_shape in
  (* Sizes and input strides of the reduced (or kept) axes, in order. *)
  let axes_where red =
    let ds = ref [] and ss = ref [] in
    for d = r - 1 downto 0 do
      if reduced.(d) = red then begin
        ds := in_shape.(d) :: !ds;
        ss := in_strides.(d) :: !ss
      end
    done;
    (Array.of_list !ds, Array.of_list !ss)
  in
  let red_dims, red_strides = axes_where true in
  let kept_dims, kept_in_strides = axes_where false in
  let kept_out_strides = Shape.strides kept_dims in
  let nkept = Array.length kept_dims and nred = Array.length red_dims in
  let count = Array.fold_left ( * ) 1 red_dims in
  let nout = Shape.numel out_shape in
  let is_max = kind = Max in
  let out = Array.make nout (if is_max then Float.neg_infinity else 0.0) in
  let grain = grain_for ~item_cost:count ~target_work:8192 in
  let prefix = Array.for_all (fun red -> red) (Array.sub reduced 0 nred) in
  if prefix then
    Parallel.parallel_for ~grain nout (fun lo hi ->
        for row = 0 to count - 1 do
          let base = row * nout in
          if is_max then
            for o = lo to hi - 1 do
              let v = Array.unsafe_get src (base + o) in
              Array.unsafe_set out o (fmax (Array.unsafe_get out o) v)
            done
          else
            for o = lo to hi - 1 do
              Array.unsafe_set out o
                (Array.unsafe_get out o +. Array.unsafe_get src (base + o))
            done
        done)
  else if count > 0 then begin
    let inner = nred - 1 in
    let run = red_dims.(inner) and stride = red_strides.(inner) in
    let runs = count / run in
    Parallel.parallel_for ~grain nout (fun lo hi ->
        let idx = Array.make nred 0 in
        for o = lo to hi - 1 do
          let off = ref 0 in
          for d = 0 to nkept - 1 do
            off :=
              !off
              + (o / kept_out_strides.(d) mod kept_dims.(d)
                * kept_in_strides.(d))
          done;
          Array.fill idx 0 nred 0;
          let acc = ref (Array.unsafe_get out o) in
          for _ = 1 to runs do
            let p = !off in
            if is_max then
              for i = 0 to run - 1 do
                acc := fmax !acc (Array.unsafe_get src (p + (i * stride)))
              done
            else
              for i = 0 to run - 1 do
                acc := !acc +. Array.unsafe_get src (p + (i * stride))
              done;
            (* Advance the odometer over the outer reduced axes. *)
            let d = ref (inner - 1) and carry = ref true in
            while !carry && !d >= 0 do
              idx.(!d) <- idx.(!d) + 1;
              off := !off + red_strides.(!d);
              if idx.(!d) = red_dims.(!d) then begin
                off := !off - (red_dims.(!d) * red_strides.(!d));
                idx.(!d) <- 0;
                decr d
              end
              else carry := false
            done
          done;
          Array.unsafe_set out o !acc
        done)
  end;
  if kind = Mean && count > 0 then begin
    let c = float_of_int count in
    for o = 0 to nout - 1 do
      Array.unsafe_set out o (Array.unsafe_get out o /. c)
    done
  end;
  T.of_float_array ~dtype:(T.dtype t) out_shape out

let reduce_sum ?axes ?keep_dims t = reduce Sum ?axes ?keep_dims t

let reduce_mean ?axes ?keep_dims t = reduce Mean ?axes ?keep_dims t

let reduce_max ?axes ?keep_dims t = reduce Max ?axes ?keep_dims t

let argmax t ~axis =
  let in_shape = T.shape t in
  let axis = Shape.normalize_axis in_shape axis in
  let out_shape = Shape.reduce in_shape [ axis ] in
  let out = T.zeros Dtype.I32 out_shape in
  let best = Array.make (Shape.numel out_shape) Float.neg_infinity in
  let r = Shape.rank in_shape in
  let kept_shape = out_shape in
  let kept_strides = Shape.strides kept_shape in
  for i = 0 to T.numel t - 1 do
    let idx = Shape.multi_index in_shape i in
    let o = ref 0 and ki = ref 0 in
    for d = 0 to r - 1 do
      if d <> axis then begin
        o := !o + (idx.(d) * kept_strides.(!ki));
        incr ki
      end
    done;
    let v = T.flat_get_f t i in
    if v > best.(!o) then begin
      best.(!o) <- v;
      T.flat_set_i out !o idx.(axis)
    end
  done;
  out

let check_dtypes what ts =
  let dt = T.dtype (List.hd ts) in
  List.iter
    (fun t ->
      if not (Dtype.equal (T.dtype t) dt) then
        invalid_arg
          (Printf.sprintf "Tensor_ops.%s: dtype mismatch %s vs %s" what
             (Dtype.to_string dt) (Dtype.to_string (T.dtype t))))
    ts

(* Copy the box [dims] between two tensors laid out row-major. *)
let blit_box src ~src_off dst ~dst_off dims =
  T.blit_strided ~src ~src_off ~src_strides:(Shape.strides (T.shape src)) ~dst
    ~dst_off ~dst_strides:(Shape.strides (T.shape dst)) dims

(* Flat offset of the multi-index [idx] under [strides]. *)
let offset strides idx = Array.fold_left ( + ) 0 (Array.map2 ( * ) strides idx)

let concat ts ~axis =
  match ts with
  | [] -> invalid_arg "Tensor_ops.concat: empty list"
  | first :: _ ->
      check_dtypes "concat" ts;
      let out_shape = Shape.concat (List.map T.shape ts) ~axis in
      let axis = Shape.normalize_axis (T.shape first) axis in
      let out = T.empty (T.dtype first) out_shape in
      let step = (Shape.strides out_shape).(axis) in
      ignore
        (List.fold_left
           (fun at t ->
             blit_box t ~src_off:0 out ~dst_off:(at * step) (T.shape t);
             at + (T.shape t).(axis))
           0 ts);
      out

let stack ts =
  concat (List.map (fun t -> T.reshape t (Array.append [| 1 |] (T.shape t))) ts)
    ~axis:0

let slice t ~begin_ ~size =
  let in_shape = T.shape t in
  let r = Shape.rank in_shape in
  if Array.length begin_ <> r || Array.length size <> r then
    invalid_arg "Tensor_ops.slice: rank mismatch";
  let out_shape =
    Array.init r (fun i ->
        let sz = if size.(i) = -1 then in_shape.(i) - begin_.(i) else size.(i) in
        if begin_.(i) < 0 || sz < 0 || begin_.(i) + sz > in_shape.(i) then
          invalid_arg "Tensor_ops.slice: out of bounds";
        sz)
  in
  let out = T.empty (T.dtype t) out_shape in
  blit_box t ~src_off:(offset (Shape.strides in_shape) begin_) out ~dst_off:0
    out_shape;
  out

let split t ~axis ~num =
  let in_shape = T.shape t in
  let axis = Shape.normalize_axis in_shape axis in
  if num <= 0 || in_shape.(axis) mod num <> 0 then
    invalid_arg "Tensor_ops.split: axis not divisible";
  let piece = in_shape.(axis) / num in
  List.init num (fun i ->
      let begin_ = Array.make (Shape.rank in_shape) 0 in
      begin_.(axis) <- i * piece;
      let size = Array.copy in_shape in
      size.(axis) <- piece;
      slice t ~begin_ ~size)

let pad t ~paddings =
  let in_shape = T.shape t in
  let r = Shape.rank in_shape in
  if Array.length paddings <> r then
    invalid_arg "Tensor_ops.pad: rank mismatch";
  if Array.exists (fun (before, after) -> before < 0 || after < 0) paddings
  then invalid_arg "Tensor_ops.pad: negative padding";
  let out_shape =
    Array.init r (fun i ->
        let before, after = paddings.(i) in
        in_shape.(i) + before + after)
  in
  let out = T.zeros (T.dtype t) out_shape in
  blit_box t ~src_off:0 out
    ~dst_off:(offset (Shape.strides out_shape) (Array.map fst paddings))
    in_shape;
  out

let tile t ~multiples =
  let in_shape = T.shape t in
  let r = Shape.rank in_shape in
  if Array.length multiples <> r then
    invalid_arg "Tensor_ops.tile: rank mismatch";
  let out_shape = Array.init r (fun i -> in_shape.(i) * multiples.(i)) in
  let out = T.empty (T.dtype t) out_shape in
  let in_strides = Shape.strides in_shape in
  let out_strides = Shape.strides out_shape in
  (* Output axis d splits into (replica, position): the replica reads
     the source at stride 0. *)
  let split_axes f = Array.init (2 * r) (fun i -> f (i / 2) (i mod 2 = 0)) in
  T.blit_strided ~src:t ~src_off:0
    ~src_strides:(split_axes (fun d rep -> if rep then 0 else in_strides.(d)))
    ~dst:out ~dst_off:0
    ~dst_strides:
      (split_axes (fun d rep ->
           if rep then in_shape.(d) * out_strides.(d) else out_strides.(d)))
    (split_axes (fun d rep -> if rep then multiples.(d) else in_shape.(d)));
  out

let broadcast_to t target =
  let bshape = Shape.broadcast (T.shape t) target in
  if not (Shape.equal bshape target) then
    invalid_arg "Tensor_ops.broadcast_to: not broadcastable to target";
  let out = T.empty (T.dtype t) target in
  T.blit_strided ~src:t ~src_off:0
    ~src_strides:(T.broadcast_strides t target)
    ~dst:out ~dst_off:0 ~dst_strides:(Shape.strides target) target;
  out

let one_hot indices ~depth =
  let in_shape = T.shape indices in
  let out_shape = Array.append in_shape [| depth |] in
  let out = T.zeros Dtype.F32 out_shape in
  for i = 0 to T.numel indices - 1 do
    let v = T.flat_get_i indices i in
    if v >= 0 && v < depth then T.flat_set_f out ((i * depth) + v) 1.0
  done;
  out

(* Rows are the slices along axis 0; a scalar is one row of one element. *)
let row_tail t =
  let s = T.shape t in
  if Shape.rank s = 0 then [||] else Array.sub s 1 (Shape.rank s - 1)

let row_size t = Shape.numel (row_tail t)

(* Copy row [i] of [src] to row [j] of [dst], [rs] elements each. *)
let copy_row src i dst j rs =
  T.blit_strided ~src ~src_off:(i * rs) ~src_strides:[| 1 |] ~dst
    ~dst_off:(j * rs) ~dst_strides:[| 1 |] [| rs |]

let gather params indices =
  let s = T.shape params in
  if Shape.rank s < 1 then invalid_arg "Tensor_ops: params must have rank >= 1";
  let rs = row_size params in
  let out =
    T.empty (T.dtype params) (Array.append (T.shape indices) (row_tail params))
  in
  for i = 0 to T.numel indices - 1 do
    let row = T.flat_get_i indices i in
    if row < 0 || row >= s.(0) then
      invalid_arg
        (Printf.sprintf "Tensor_ops.gather: index %d out of range [0,%d)" row
           s.(0));
    copy_row params row out i rs
  done;
  out

(* The row index of each entry of [indices], all checked against
   [0, nrows) before the caller writes anything. *)
let checked_rows what indices nrows =
  let rows = Array.init (T.numel indices) (T.flat_get_i indices) in
  Array.iter
    (fun row ->
      if row < 0 || row >= nrows then
        invalid_arg
          (Printf.sprintf "Tensor_ops.%s: index %d out of range [0,%d)" what
             row nrows))
    rows;
  rows

let unsupported what t =
  invalid_arg
    (Printf.sprintf "Tensor_ops.%s: unsupported dtype %s" what
       (Dtype.to_string (T.dtype t)))

(* Adds (or, with [~sub], subtracts) row [i] of [updates] into row
   [indices.(i)] of [out] in place, in index order, so duplicate rows
   accumulate in order of occurrence. Typed loops: I64 rows stay exact. *)
let scatter_rows what ~sub out indices updates =
  if T.rank out < 1 then
    invalid_arg
      (Printf.sprintf "Tensor_ops.%s: target must have rank >= 1" what);
  check_dtypes what [ out; updates ];
  let rs = row_size out in
  let n = T.numel indices in
  if T.numel updates <> n * rs then
    invalid_arg (Printf.sprintf "Tensor_ops.%s: updates size mismatch" what);
  let rows = checked_rows what indices (T.shape out).(0) in
  (* Buffer lengths equal numel, so every offset below is in bounds. *)
  match (out.T.buf, updates.T.buf) with
  | T.Float_buf o, T.Float_buf u ->
      for i = 0 to n - 1 do
        let dst = rows.(i) * rs and src = i * rs in
        if sub then
          for j = 0 to rs - 1 do
            Array.unsafe_set o (dst + j)
              (Array.unsafe_get o (dst + j) -. Array.unsafe_get u (src + j))
          done
        else
          for j = 0 to rs - 1 do
            Array.unsafe_set o (dst + j)
              (Array.unsafe_get o (dst + j) +. Array.unsafe_get u (src + j))
          done
      done
  | T.Int_buf o, T.Int_buf u ->
      for i = 0 to n - 1 do
        let dst = rows.(i) * rs and src = i * rs in
        if sub then
          for j = 0 to rs - 1 do
            Array.unsafe_set o (dst + j)
              (Array.unsafe_get o (dst + j) - Array.unsafe_get u (src + j))
          done
        else
          for j = 0 to rs - 1 do
            Array.unsafe_set o (dst + j)
              (Array.unsafe_get o (dst + j) + Array.unsafe_get u (src + j))
          done
      done
  | _ -> unsupported what out

let scatter_add_in_place = scatter_rows "scatter_add" ~sub:false

let scatter_sub_in_place = scatter_rows "scatter_sub" ~sub:true

let scatter_update_in_place out indices updates =
  let what = "scatter_update" in
  if T.rank out < 1 then
    invalid_arg
      (Printf.sprintf "Tensor_ops.%s: target must have rank >= 1" what);
  check_dtypes what [ out; updates ];
  let rs = row_size out in
  if T.numel updates <> T.numel indices * rs then
    invalid_arg (Printf.sprintf "Tensor_ops.%s: updates size mismatch" what);
  Array.iteri
    (fun i row -> copy_row updates i out row rs)
    (checked_rows what indices (T.shape out).(0))

let scatter_into_shape shape indices updates =
  let out = T.zeros (T.dtype updates) shape in
  scatter_rows "scatter_into_shape" ~sub:false out indices updates;
  out

let unique_segment_sum indices values =
  let what = "unique_segment_sum" in
  let idx =
    match indices.T.buf with T.Int_buf a -> a | _ -> unsupported what indices
  in
  let ishape = T.shape indices and vshape = T.shape values in
  let ri = Shape.rank ishape and rv = Shape.rank vshape in
  if rv < ri || not (Shape.equal (Array.sub vshape 0 ri) ishape) then
    invalid_arg
      (Printf.sprintf "Tensor_ops.%s: values %s do not start with indices %s"
         what (Shape.to_string vshape) (Shape.to_string ishape));
  let tail = Array.sub vshape ri (rv - ri) in
  let rs = Shape.numel tail in
  let n = Array.length idx in
  (* A stable sort keeps each index's duplicates in order of occurrence. *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare idx.(a) idx.(b)) order;
  (* Segment k covers order.(seg.(k)) .. order.(seg.(k+1) - 1). *)
  let seg = Array.make (n + 1) n in
  let u = ref 0 in
  Array.iteri
    (fun s p ->
      if s = 0 || idx.(p) <> idx.(order.(s - 1)) then begin
        seg.(!u) <- s;
        incr u
      end)
    order;
  let u = !u in
  seg.(u) <- n;
  let unique =
    T.of_int_array ~dtype:(T.dtype indices) [| u |]
      (Array.init u (fun k -> idx.(order.(seg.(k)))))
  in
  let out = T.empty (T.dtype values) (Array.append [| u |] tail) in
  let grain =
    grain_for ~item_cost:(rs * max 1 (n / max 1 u)) ~target_work:8192
  in
  (* Every sum starts from +0.0 (0 for ints), as ScatterIntoShape's zeros
     do; segments are disjoint rows, so shards never share a row. *)
  (match (out.T.buf, values.T.buf) with
  | T.Float_buf o, T.Float_buf v ->
      Parallel.parallel_for ~grain u (fun lo hi ->
          for k = lo to hi - 1 do
            let dst = k * rs in
            Array.fill o dst rs 0.0;
            for s = seg.(k) to seg.(k + 1) - 1 do
              let src = order.(s) * rs in
              for j = 0 to rs - 1 do
                Array.unsafe_set o (dst + j)
                  (Array.unsafe_get o (dst + j) +. Array.unsafe_get v (src + j))
              done
            done
          done)
  | T.Int_buf o, T.Int_buf v ->
      Parallel.parallel_for ~grain u (fun lo hi ->
          for k = lo to hi - 1 do
            let dst = k * rs in
            Array.fill o dst rs 0;
            for s = seg.(k) to seg.(k + 1) - 1 do
              let src = order.(s) * rs in
              for j = 0 to rs - 1 do
                Array.unsafe_set o (dst + j)
                  (Array.unsafe_get o (dst + j) + Array.unsafe_get v (src + j))
              done
            done
          done)
  | _ -> unsupported what values);
  (unique, out)

let sparse_apply_adagrad ~var ~accum ~lr ~epsilon indices values =
  let what = "sparse_apply_adagrad" in
  if T.rank var < 1 then
    invalid_arg
      (Printf.sprintf "Tensor_ops.%s: variable must have rank >= 1" what);
  check_dtypes what [ var; accum; values ];
  if not (Shape.equal (T.shape var) (T.shape accum)) then
    invalid_arg
      (Printf.sprintf "Tensor_ops.%s: accumulator %s does not match variable %s"
         what
         (Shape.to_string (T.shape accum))
         (Shape.to_string (T.shape var)));
  if T.numel lr <> 1 then
    invalid_arg (Printf.sprintf "Tensor_ops.%s: lr must be a scalar" what);
  let rs = row_size var in
  let n = T.numel indices in
  if T.numel values <> n * rs then
    invalid_arg (Printf.sprintf "Tensor_ops.%s: values size mismatch" what);
  let rows = checked_rows what indices (T.shape var).(0) in
  for i = 1 to n - 1 do
    if rows.(i) <= rows.(i - 1) then
      invalid_arg
        (Printf.sprintf
           "Tensor_ops.%s: indices not strictly increasing (%d after %d)" what
           rows.(i) rows.(i - 1))
  done;
  let lr = T.flat_get_f lr 0 in
  match (var.T.buf, accum.T.buf, values.T.buf) with
  | T.Float_buf w, T.Float_buf a, T.Float_buf g ->
      (* The dense update's operation order, element by element:
         acc += g*g; var -= (lr*g) / (sqrt acc + eps). Rows are distinct,
         so shards never share a row. *)
      Parallel.parallel_for ~grain:(grain_for ~item_cost:rs ~target_work:8192) n
        (fun lo hi ->
          for i = lo to hi - 1 do
            let dst = rows.(i) * rs and src = i * rs in
            for j = 0 to rs - 1 do
              let gj = Array.unsafe_get g (src + j) in
              let acc = Array.unsafe_get a (dst + j) +. (gj *. gj) in
              Array.unsafe_set a (dst + j) acc;
              Array.unsafe_set w (dst + j)
                (Array.unsafe_get w (dst + j)
                -. (lr *. gj /. (Float.sqrt acc +. epsilon)))
            done
          done)
  | _ -> unsupported what var

let dynamic_partition data partitions ~num =
  let s = T.shape data in
  let nrows = if Shape.rank s = 0 then 1 else s.(0) in
  if T.numel partitions <> nrows then
    invalid_arg "Tensor_ops.dynamic_partition: partitions length mismatch";
  let counts = Array.make num 0 in
  let ids =
    Array.init nrows (fun i ->
        let p = T.flat_get_i partitions i in
        if p < 0 || p >= num then
          invalid_arg "Tensor_ops.dynamic_partition: partition id out of range";
        counts.(p) <- counts.(p) + 1;
        p)
  in
  let outs =
    Array.map
      (fun c -> T.empty (T.dtype data) (Array.append [| c |] (row_tail data)))
      counts
  in
  let rs = row_size data in
  Array.fill counts 0 num 0;
  Array.iteri
    (fun i p ->
      copy_row data i outs.(p) counts.(p) rs;
      counts.(p) <- counts.(p) + 1)
    ids;
  Array.to_list outs

let dynamic_stitch indices data =
  if List.length indices <> List.length data then
    invalid_arg "Tensor_ops.dynamic_stitch: list length mismatch";
  if indices = [] then invalid_arg "Tensor_ops.dynamic_stitch: empty";
  check_dtypes "dynamic_stitch" data;
  let max_index =
    List.fold_left
      (fun acc idx -> Array.fold_left max acc (T.to_int_array idx))
      (-1) indices
  in
  (* Row size and tail shape come from any non-empty partition. *)
  let pairs = List.combine indices data in
  let rs, tail_shape =
    match List.find_opt (fun (idx, _) -> T.numel idx > 0) pairs with
    | Some (idx, d) -> (T.numel d / T.numel idx, row_tail d)
    | None -> (1, [||])
  in
  let out_shape = Array.append [| max_index + 1 |] tail_shape in
  let out = T.zeros (T.dtype (List.hd data)) out_shape in
  List.iter
    (fun (idx, d) ->
      for i = 0 to T.numel idx - 1 do
        copy_row d i out (T.flat_get_i idx i) rs
      done)
    pairs;
  out

type padding = Same | Valid

(* Output size and pad-before for one spatial dimension. *)
let conv_dim ~padding ~in_size ~filter ~stride =
  match padding with
  | Valid ->
      let out = ((in_size - filter) / stride) + 1 in
      (out, 0)
  | Same ->
      let out = (in_size + stride - 1) / stride in
      let pad_total = max 0 (((out - 1) * stride) + filter - in_size) in
      (out, pad_total / 2)

(* im2col: unroll convolution input patches into a
   [batch*oh*ow x fh*fw*ic] row-major matrix whose columns line up with
   HWIO filter rows, turning conv2d and both of its gradients into
   blocked matmuls over the shared GEMM core.

   Each (patch row, filter row) pair is one run: the filter columns
   [kx0, kx1) that land inside the input row are (kx1 - kx0) * ic
   contiguous input floats, copied as they lie, and the columns that
   fall in the padding before and after them are zero fills. The input
   length is checked once here, so the copies run unchecked. *)

let check_im2col_input len ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~rows =
  if
    ih < 0 || iw < 0 || ic < 0 || fh < 0 || fw < 0 || rows < 0
    || (rows > 0 && (oh <= 0 || ow <= 0))
    || (rows > 0 && len < (rows + (oh * ow) - 1) / (oh * ow) * ih * iw * ic)
  then
    invalid_arg
      (Printf.sprintf
         "Tensor_ops.im2col: %d input floats too short for %d rows over \
          %dx%dx%d images"
         len rows ih iw ic)

let[@inline] zero_run (dst : float array) at len =
  for i = at to at + len - 1 do
    Array.unsafe_set dst i 0.0
  done

(* A run of 16 floats or more is one [Array.blit] (conv2's 40-float
   runs copied in about half the time); a shorter one, such as conv1's
   five, is a loop, cheaper than the C call. *)
let[@inline] copy_run (src : float array) from (dst : float array) at len =
  if len >= 16 then Array.blit src from dst at len
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (at + i) (Array.unsafe_get src (from + i))
    done

let im2col din ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~sh ~sw ~ph ~pw ~rows =
  check_im2col_input (Array.length din) ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~rows;
  let kdim = fh * fw * ic and run = fw * ic in
  let cols = Buffer_pool.alloc_float ~zero:false (rows * kdim) in
  Parallel.parallel_for
    ~grain:(grain_for ~item_cost:kdim ~target_work:16384)
    rows
    (fun lo hi ->
      (* Output pixel (b, y, x) of row rix, stepped without a division. *)
      let x = ref (lo mod ow) and y = ref (lo / ow mod oh) in
      let b = ref (lo / (ow * oh)) in
      for rix = lo to hi - 1 do
        let x0 = (!x * sw) - pw in
        (* Filter columns [kx0, kx1) land inside the input row. *)
        let kx0 = if x0 < 0 then -x0 else 0 in
        let kx1 = if iw - x0 < fw then iw - x0 else fw in
        for ky = 0 to fh - 1 do
          let sy = (!y * sh) + ky - ph in
          let cbase = (rix * kdim) + (ky * run) in
          if sy < 0 || sy >= ih || kx1 <= kx0 then zero_run cols cbase run
          else begin
            zero_run cols cbase (kx0 * ic);
            copy_run din
              (((((!b * ih) + sy) * iw) + x0 + kx0) * ic)
              cols
              (cbase + (kx0 * ic))
              ((kx1 - kx0) * ic);
            zero_run cols (cbase + (kx1 * ic)) ((fw - kx1) * ic)
          end
        done;
        incr x;
        if !x = ow then begin
          x := 0;
          incr y;
          if !y = oh then begin
            y := 0;
            incr b
          end
        end
      done);
  cols

let conv2d input filter ~strides ~padding =
  let is = T.shape input and fs = T.shape filter in
  if Shape.rank is <> 4 || Shape.rank fs <> 4 then
    invalid_arg "Tensor_ops.conv2d: input NHWC and filter HWIO required";
  let batch = is.(0) and ih = is.(1) and iw = is.(2) and ic = is.(3) in
  let fh = fs.(0) and fw = fs.(1) and fic = fs.(2) and oc = fs.(3) in
  if ic <> fic then invalid_arg "Tensor_ops.conv2d: channel mismatch";
  let sh, sw = strides in
  let oh, ph = conv_dim ~padding ~in_size:ih ~filter:fh ~stride:sh in
  let ow, pw = conv_dim ~padding ~in_size:iw ~filter:fw ~stride:sw in
  let din = T.float_buffer input and dft = T.float_buffer filter in
  let rows = batch * oh * ow and kdim = fh * fw * ic in
  let cols = im2col din ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~sh ~sw ~ph ~pw ~rows in
  let out = gemm ~m:rows ~k:kdim ~n:oc (cols, kdim, 1) (dft, oc, 1) in
  Buffer_pool.release_float cols;
  T.of_float_array ~dtype:(T.dtype input) [| batch; oh; ow; oc |] out

let conv2d_grad_input ~input_shape filter dy ~strides ~padding =
  let is = input_shape and fs = T.shape filter and os = T.shape dy in
  let batch = is.(0) and ih = is.(1) and iw = is.(2) and ic = is.(3) in
  let fh = fs.(0) and fw = fs.(1) and oc = fs.(3) in
  let oh = os.(1) and ow = os.(2) in
  let sh, sw = strides in
  let _, ph = conv_dim ~padding ~in_size:ih ~filter:fh ~stride:sh in
  let _, pw = conv_dim ~padding ~in_size:iw ~filter:fw ~stride:sw in
  let dft = T.float_buffer filter and ddy = T.float_buffer dy in
  let rows = batch * oh * ow and kdim = fh * fw * ic in
  (* d(cols) = dy[rows x oc] * filter^T[oc x kdim], then scatter the patch
     gradients back (col2im). Windows overlap within a batch image, so
     the scatter shards over the batch dimension only — contributions to
     one input element stay on one shard, in a fixed order. *)
  let dcols =
    gemm ~m:rows ~k:oc ~n:kdim (ddy, oc, 1)
      (operand ~transposed:true dft oc kdim)
  in
  let out = Buffer_pool.alloc_float (batch * ih * iw * ic) in
  (* col2im: the runs of im2col, added back in the same (y, x, ky, kx, c)
     order as a per-element scatter, so every input element sees its
     contributions in that order. dcols and out are sized here from the
     same geometry, so the adds run unchecked. *)
  Parallel.parallel_for ~grain:1 batch (fun blo bhi ->
      for b = blo to bhi - 1 do
        for y = 0 to oh - 1 do
          for x = 0 to ow - 1 do
            let rbase = ((((b * oh) + y) * ow) + x) * kdim in
            let x0 = (x * sw) - pw in
            let kx0 = if x0 < 0 then -x0 else 0 in
            let kx1 = if iw - x0 < fw then iw - x0 else fw in
            for ky = 0 to fh - 1 do
              let sy = (y * sh) + ky - ph in
              if sy >= 0 && sy < ih && kx0 < kx1 then begin
                let dst = ((((b * ih) + sy) * iw) + x0 + kx0) * ic
                and src = rbase + (((ky * fw) + kx0) * ic) in
                for i = 0 to ((kx1 - kx0) * ic) - 1 do
                  Array.unsafe_set out (dst + i)
                    (Array.unsafe_get out (dst + i)
                    +. Array.unsafe_get dcols (src + i))
                done
              end
            done
          done
        done
      done);
  Buffer_pool.release_float dcols;
  T.of_float_array ~dtype:(T.dtype dy) is out

let conv2d_grad_filter ~filter_shape input dy ~strides ~padding =
  let is = T.shape input and fs = filter_shape and os = T.shape dy in
  let batch = is.(0) and ih = is.(1) and iw = is.(2) and ic = is.(3) in
  let fh = fs.(0) and fw = fs.(1) and oc = fs.(3) in
  let oh = os.(1) and ow = os.(2) in
  let sh, sw = strides in
  let _, ph = conv_dim ~padding ~in_size:ih ~filter:fh ~stride:sh in
  let _, pw = conv_dim ~padding ~in_size:iw ~filter:fw ~stride:sw in
  let din = T.float_buffer input and ddy = T.float_buffer dy in
  let rows = batch * oh * ow and kdim = fh * fw * ic in
  (* d(filter) = cols^T[kdim x rows] * dy[rows x oc]: patch positions are
     the contraction axis, accumulated in ascending (b, y, x) order for
     every filter element. *)
  let cols = im2col din ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~sh ~sw ~ph ~pw ~rows in
  let out =
    gemm ~m:kdim ~k:rows ~n:oc
      (operand ~transposed:true cols kdim rows)
      (ddy, oc, 1)
  in
  Buffer_pool.release_float cols;
  T.of_float_array ~dtype:(T.dtype dy) fs out

(* Pooling over NHWC, one output row (batch, y) per iteration. The row
   starts at the identity of its reduction (-inf, 0.0, or code 0), and
   each window cell (ky, kx) then folds into every output pixel whose
   window holds it: a strided run over x, with the channel loop
   innermost. Each output element thus sees its cells in (ky, kx) order,
   as a per-element scan would: the sums keep that order, and
   [Float.max] from -inf returns its first operand's bits and is
   commutative and associative, NaN and signed zeros included. Every
   SAME or VALID window holds at least one input cell, so a window's
   maximum is one of its elements, and uint8 codes pool exactly as the
   floats they decode to (the decode is monotone). *)
type pool_bufs =
  | Max_f of float array * float array
  | Avg_f of float array * float array
  | Max_u8 of Bytes.t * Bytes.t

let pool_shape input ~ksize ~strides ~padding =
  let is = T.shape input in
  if Shape.rank is <> 4 then invalid_arg "Tensor_ops.pool: NHWC required";
  let kh, kw = ksize and sh, sw = strides in
  let oh, _ = conv_dim ~padding ~in_size:is.(1) ~filter:kh ~stride:sh in
  let ow, _ = conv_dim ~padding ~in_size:is.(2) ~filter:kw ~stride:sw in
  [| is.(0); oh; ow; is.(3) |]

let pool bufs input ~ksize ~strides ~padding =
  let is = T.shape input in
  let batch = is.(0) and ih = is.(1) and iw = is.(2) and c = is.(3) in
  let kh, kw = ksize and sh, sw = strides in
  let oh, ph = conv_dim ~padding ~in_size:ih ~filter:kh ~stride:sh in
  let ow, pw = conv_dim ~padding ~in_size:iw ~filter:kw ~stride:sw in
  (* The output pixels x whose window holds column kx: those with
     0 <= x * sw + kx - pw < iw. *)
  let x_lo kx = max 0 ((pw - kx + sw - 1) / sw)
  and x_hi kx =
    let last = iw - 1 + pw - kx in
    if last < 0 then -1 else min (ow - 1) (last / sw)
  in
  Parallel.parallel_for
    ~grain:(grain_for ~item_cost:(ow * c * kh * kw) ~target_work:8192)
    (batch * oh)
    (fun lo hi ->
      for row = lo to hi - 1 do
        let b = row / oh in
        let y0 = ((row - (b * oh)) * sh) - ph in
        let ky0 = max 0 (-y0) and ky1 = min kh (ih - y0) in
        let orow = row * ow * c in
        (match bufs with
        | Max_f (_, dst) -> Array.fill dst orow (ow * c) Float.neg_infinity
        | Avg_f (_, dst) -> Array.fill dst orow (ow * c) 0.0
        | Max_u8 (_, dst) -> Bytes.fill dst orow (ow * c) '\000');
        for ky = ky0 to ky1 - 1 do
          let irow = ((b * ih) + y0 + ky) * iw in
          for kx = 0 to kw - 1 do
            let xl = x_lo kx and xh = x_hi kx in
            (* Input pixel of output pixel x: irow + x * sw + kx - pw. *)
            let ibase = (irow + kx - pw) * c and istep = sw * c in
            match bufs with
            | Max_f (src, dst) ->
                for x = xl to xh do
                  let i = ibase + (x * istep) and o = orow + (x * c) in
                  for ch = 0 to c - 1 do
                    Array.unsafe_set dst (o + ch)
                      (fmax
                         (Array.unsafe_get dst (o + ch))
                         (Array.unsafe_get src (i + ch)))
                  done
                done
            | Avg_f (src, dst) ->
                for x = xl to xh do
                  let i = ibase + (x * istep) and o = orow + (x * c) in
                  for ch = 0 to c - 1 do
                    Array.unsafe_set dst (o + ch)
                      (Array.unsafe_get dst (o + ch)
                      +. Array.unsafe_get src (i + ch))
                  done
                done
            | Max_u8 (src, dst) ->
                for x = xl to xh do
                  let i = ibase + (x * istep) and o = orow + (x * c) in
                  for ch = 0 to c - 1 do
                    (* Branch-free: [d asr 62] is all ones when d < 0. *)
                    let a = Char.code (Bytes.unsafe_get dst (o + ch)) in
                    let d = a - Char.code (Bytes.unsafe_get src (i + ch)) in
                    Bytes.unsafe_set dst (o + ch)
                      (Char.unsafe_chr (a - (d land (d asr 62))))
                  done
                done
          done
        done;
        match bufs with
        | Avg_f (_, dst) ->
            for x = 0 to ow - 1 do
              let o = orow + (x * c) and x0 = (x * sw) - pw in
              let n =
                float_of_int ((ky1 - ky0) * (min kw (iw - x0) - max 0 (-x0)))
              in
              for ch = 0 to c - 1 do
                Array.unsafe_set dst (o + ch) (Array.unsafe_get dst (o + ch) /. n)
              done
            done
        | Max_f _ | Max_u8 _ -> ()
      done)

let max_pool input ~ksize ~strides ~padding =
  let shape = pool_shape input ~ksize ~strides ~padding in
  let n = Shape.numel shape in
  match T.dtype input with
  | Dtype.U8 ->
      let dst = Buffer_pool.alloc_bytes n in
      pool (Max_u8 (T.byte_buffer input, dst)) input ~ksize ~strides ~padding;
      T.of_bytes shape dst
  | dtype ->
      let dst = Buffer_pool.alloc_float ~zero:false n in
      pool (Max_f (T.float_buffer input, dst)) input ~ksize ~strides ~padding;
      T.of_float_array ~dtype shape dst

let avg_pool input ~ksize ~strides ~padding =
  let shape = pool_shape input ~ksize ~strides ~padding in
  let dst = Buffer_pool.alloc_float ~zero:false (Shape.numel shape) in
  pool (Avg_f (T.float_buffer input, dst)) input ~ksize ~strides ~padding;
  T.of_float_array ~dtype:(T.dtype input) shape dst

let max_pool_grad input dy ~ksize ~strides ~padding =
  let is = T.shape input and os = T.shape dy in
  let batch = is.(0) and ih = is.(1) and iw = is.(2) and c = is.(3) in
  let kh, kw = ksize and sh, sw = strides in
  let oh = os.(1) and ow = os.(2) in
  let _, ph = conv_dim ~padding ~in_size:ih ~filter:kh ~stride:sh in
  let _, pw = conv_dim ~padding ~in_size:iw ~filter:kw ~stride:sw in
  let din = T.float_buffer input and ddy = T.float_buffer dy in
  let out = Array.make (T.numel input) 0.0 in
  (* Windows overlap within an image, so gradient scatter shards over the
     batch dimension only. *)
  Parallel.parallel_for ~grain:1 batch (fun blo bhi ->
  for b = blo to bhi - 1 do
    for y = 0 to oh - 1 do
      for x = 0 to ow - 1 do
        for ch = 0 to c - 1 do
          (* Find the argmax of the window, then route the gradient there. *)
          let best = ref Float.neg_infinity and best_off = ref (-1) in
          for ky = 0 to kh - 1 do
            let sy = (y * sh) + ky - ph in
            if sy >= 0 && sy < ih then
              for kx = 0 to kw - 1 do
                let sx = (x * sw) + kx - pw in
                if sx >= 0 && sx < iw then begin
                  let off = (((b * ih) + sy) * iw + sx) * c + ch in
                  if din.(off) > !best then begin
                    best := din.(off);
                    best_off := off
                  end
                end
              done
          done;
          if !best_off >= 0 then
            out.(!best_off) <-
              out.(!best_off) +. ddy.((((b * oh) + y) * ow + x) * c + ch)
        done
      done
    done
  done);
  T.of_float_array ~dtype:(T.dtype input) is out

let rows_2d t =
  let s = T.shape t in
  if Shape.rank s <> 2 then invalid_arg "Tensor_ops: 2-D tensor required";
  (s.(0), s.(1))

(* The softmax family shards over rows: each row's max / sum / normalize
   passes stay on one shard, in the serial order. *)
let softmax_grain d = grain_for ~item_cost:d ~target_work:4096

let softmax t =
  let n, d = rows_2d t in
  let src = T.float_buffer t in
  let out = Array.make (n * d) 0.0 in
  Parallel.parallel_for ~grain:(softmax_grain d) n (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * d in
        let m = ref Float.neg_infinity in
        for j = 0 to d - 1 do
          m := Float.max !m src.(base + j)
        done;
        let sum = ref 0.0 in
        for j = 0 to d - 1 do
          let e = Stdlib.exp (src.(base + j) -. !m) in
          out.(base + j) <- e;
          sum := !sum +. e
        done;
        for j = 0 to d - 1 do
          out.(base + j) <- out.(base + j) /. !sum
        done
      done);
  T.of_float_array ~dtype:(T.dtype t) (T.shape t) out

let log_softmax t =
  let n, d = rows_2d t in
  let src = T.float_buffer t in
  let out = Array.make (n * d) 0.0 in
  Parallel.parallel_for ~grain:(softmax_grain d) n (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * d in
        let m = ref Float.neg_infinity in
        for j = 0 to d - 1 do
          m := Float.max !m src.(base + j)
        done;
        let sum = ref 0.0 in
        for j = 0 to d - 1 do
          sum := !sum +. Stdlib.exp (src.(base + j) -. !m)
        done;
        let lse = !m +. Stdlib.log !sum in
        for j = 0 to d - 1 do
          out.(base + j) <- src.(base + j) -. lse
        done
      done);
  T.of_float_array ~dtype:(T.dtype t) (T.shape t) out

let softmax_cross_entropy ~logits ~labels =
  let n, d = rows_2d logits in
  let ls = log_softmax logits in
  let lsb = T.float_buffer ls and lab = T.float_buffer labels in
  let out = Array.make n 0.0 in
  Parallel.parallel_for ~grain:(softmax_grain d) n (fun lo hi ->
      for i = lo to hi - 1 do
        let acc = ref 0.0 in
        for j = 0 to d - 1 do
          acc := !acc +. (lab.((i * d) + j) *. lsb.((i * d) + j))
        done;
        out.(i) <- -. !acc
      done);
  T.of_float_array ~dtype:(T.dtype logits) [| n |] out

let softmax_cross_entropy_grad ~logits ~labels = sub (softmax logits) labels
