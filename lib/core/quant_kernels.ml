(* Quantization kernels (§5): "we have also implemented support for
   quantization, which enables faster inference in environments such as
   mobile devices ... and use the gemmlowp low-precision matrix
   multiplication library".

   8-bit affine quantization in the TF/gemmlowp style: a float tensor is
   mapped onto [0, 255] with a (min, max) range carried alongside as two
   scalar tensors; the quantized contractions accumulate the 8-bit codes
   in integer arithmetic (exactly what gemmlowp does) and produce the
   rescaled float result. Codes travel in packed uint8 tensors — one
   byte per element, a 4x cut over float32 weights.

   Two families of contraction kernels:
   - [QuantizedMatMul] / [QuantizedConv2D] produce a float output
     directly (used when no calibrated output range is known);
   - [QuantizedMatMulQ] / [QuantizedConv2DQ] produce codes plus range
     scalars, with optional fused bias / ReLU epilogues, so consecutive
     quantized islands can exchange codes without a float round trip
     (the optimizer elides the Dequantize/Quantize pair between them).

   Shape and dtype violations raise structured {!Step_failure} errors
   ([Invalid_graph]) rather than bare [Invalid_argument], so a bad
   quantized graph surfaces through the session's typed error path. *)

open Octf_tensor
module K = Kernel
module SF = Step_failure

let t v = Value.Tensor v

let levels = 255.0

let invalid fmt =
  Printf.ksprintf (fun m -> raise (SF.error (SF.Invalid_graph m))) fmt

let grain_for ~item_cost ~target_work = max 1 (target_work / max 1 item_cost)

(* Float kernels read their input's buffer directly, so the dtype is
   checked once here rather than per element. *)
let floats op tensor =
  match Tensor.dtype tensor with
  | Dtype.F32 | Dtype.F64 -> Tensor.float_buffer tensor
  | d ->
      invalid "%s: input must be a float tensor (got %s)" op
        (Dtype.to_string d)

(* The range always includes 0.0 (so zero quantizes exactly enough for
   padding and ReLU cut-offs) and degenerate ranges are widened to a
   unit interval so constant tensors still round-trip. Only finite
   values count: an infinity would make every code decode to NaN, so
   +-inf instead clamp to the range ends like any other outlier. *)
let range_of tensor =
  let src = floats "Quantize" tensor in
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  for i = 0 to Array.length src - 1 do
    let v = Array.unsafe_get src i in
    if Float.is_finite v then begin
      if v < !lo then lo := v;
      if v > !hi then hi := v
    end
  done;
  let lo = Float.min 0.0 !lo in
  let hi = Float.max 0.0 !hi in
  if hi -. lo < 1e-12 then (lo, lo +. 1.0) else (lo, hi)

let scale_of lo hi = (hi -. lo) /. levels

(* The code that decodes nearest to 0.0; in-range because every range
   includes zero. Convolution padding must be filled with this code —
   code 0 decodes to [lo], not to zero. *)
let zero_point lo hi =
  let z = Float.round (-.lo *. levels /. (hi -. lo)) in
  int_of_float (Float.max 0.0 (Float.min levels z))

let check_range op lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid "%s: non-finite range [%g, %g]" op lo hi;
  if not (hi > lo) then invalid "%s: empty range [%g, %g]" op lo hi

(* The one encoding every codes-producing path shares, with [scale]
   [levels /. (hi -. lo)], so the fused GEMM epilogue rounds and clamps
   exactly as a separate Quantize pass does: [clamp 0 255 (Float.round
   u)], halves away from zero, NaN to 0. It avoids the C calls behind
   [Float.round], [Float.min] and [Float.max]. [Float.round u >= 255]
   exactly when [u >= 254.5]; and for [u >= 0.5] the sum [u +. 0.5] is
   rounded only where it cannot cross an integer, so truncating it
   rounds [u]. (Below 0.5 it can: [0.49999999999999994 +. 0.5 = 1.0].) *)
let[@inline] encode ~lo ~scale v =
  let u = (v -. lo) *. scale in
  if u >= 254.5 then '\255'
  else if u >= 0.5 then Char.unsafe_chr (int_of_float (u +. 0.5))
  else '\000'

let quantize_with_range tensor lo hi =
  check_range "Quantize" lo hi;
  let src = floats "Quantize" tensor in
  let scale = levels /. (hi -. lo) in
  let n = Array.length src in
  let dst = Buffer_pool.alloc_bytes n in
  Parallel.parallel_for ~grain:4096 n (fun l h ->
      for i = l to h - 1 do
        Bytes.unsafe_set dst i (encode ~lo ~scale (Array.unsafe_get src i))
      done);
  Tensor.of_bytes (Tensor.shape tensor) dst

let quantize tensor =
  let lo, hi = range_of tensor in
  (quantize_with_range tensor lo hi, lo, hi)

let dequantize q lo hi =
  let scale = scale_of lo hi in
  let n = Tensor.numel q in
  let o = Buffer_pool.alloc_float ~zero:false n in
  (match Tensor.dtype q with
  | Dtype.U8 ->
      let src = Tensor.byte_buffer q in
      Parallel.parallel_for ~grain:4096 n (fun l h ->
          for i = l to h - 1 do
            let c = Char.code (Bytes.unsafe_get src i) in
            Array.unsafe_set o i (lo +. (float_of_int c *. scale))
          done)
  | Dtype.I32 | Dtype.I64 ->
      (* int-backed codes (e.g. hand-built in tests) still decode *)
      let src = Tensor.int_buffer q in
      for i = 0 to n - 1 do
        Array.unsafe_set o i
          (lo +. (float_of_int (Array.unsafe_get src i) *. scale))
      done
  | d ->
      invalid "Dequantize: codes must be uint8 or int (got %s)"
        (Dtype.to_string d));
  Tensor.of_float_array (Tensor.shape q) o

let require_codes op operand q =
  if Tensor.dtype q <> Dtype.U8 then
    invalid "%s: %s must be uint8 codes (got %s)" op operand
      (Dtype.to_string (Tensor.dtype q))

let bias_vector op ~n = function
  | None -> None
  | Some bt ->
      let bs = Tensor.shape bt in
      if Array.length bs <> 1 || bs.(0) <> n then
        invalid "%s: bias must be a length-%d vector" op n;
      Some (Tensor.to_float_array bt)

(* Reusable scratch: one slot per buffer kind holds the last buffer
   returned. [Atomic.exchange] empties the slot while a call owns the
   buffer, so concurrent callers (serving threads, pipelined steps —
   systhreads that share one domain and its DLS) never share one; the
   loser of a race allocates. Reuse matters because these buffers are
   big enough to go straight to the major heap: allocating them per
   call grows the RSS until a major cycle completes. *)
let cols_slot = Atomic.make Bytes.empty

let panel_slot : int array Atomic.t = Atomic.make [||]

let take_bytes len =
  let buf = Atomic.exchange cols_slot Bytes.empty in
  if Bytes.length buf >= len then buf else Bytes.create len

let take_panel len =
  let buf = Atomic.exchange panel_slot [||] in
  if Array.length buf >= len then buf else Array.make len 0

(* Integer GEMM micro-kernel.

   B's codes are packed two columns per OCaml int: [panel.(p*np + q)]
   holds B[p,2q] in bits 0-31 and B[p,2q+1] from bit 32 (zero past an
   odd n), so one multiply by an A code yields both products (SWAR) and
   one add accumulates both lanes. The low lane holds at most
   255*255*kc < 2^32 and carries nothing into the high lane; the high
   lane, read back with [lsr] as an unsigned 31-bit field, stays exact
   while 255*255*kc < 2^31. So k runs in chunks of at most [kc_max] and
   the lanes are unpacked into the per-row int accumulators after each
   chunk.

   A 2-row x 4-pair tile (8 output columns) keeps its 8 lane-pair
   accumulators in locals; 2x1, 1x4 and 1x1 tiles of the same loop
   cover the remainders. Integer sums are exact in any order, so the
   results do not depend on the tiling, chunking or thread count. *)
let kc_max = 33_025

let[@inline] add_lanes acc j c =
  Array.unsafe_set acc j (Array.unsafe_get acc j + (c land 0xFFFF_FFFF));
  Array.unsafe_set acc (j + 1) (Array.unsafe_get acc (j + 1) + (c lsr 32))

(* The tiles read rows [ai] (and [ai + k]) of A and pairs [q ..] of the
   panel, and add into [acc]: one row of [2 * np] columns (and the next
   row after it). Loops run a pointer to an end bound, not a counter:
   one register fewer, and ocamlopt then spills less. *)
let tile_2x4 a ai k panel np q acc =
  let p0 = ref 0 in
  while !p0 < k do
    let kc = if k - !p0 < kc_max then k - !p0 else kc_max in
    let c00 = ref 0 and c01 = ref 0 and c02 = ref 0 and c03 = ref 0 in
    let c10 = ref 0 and c11 = ref 0 and c12 = ref 0 and c13 = ref 0 in
    let pa = ref (ai + !p0) and pb = ref ((!p0 * np) + q) in
    let pe = !pa + kc in
    while !pa < pe do
      let a0 = !pa and b0 = !pb in
      let y0 = Array.unsafe_get panel b0
      and y1 = Array.unsafe_get panel (b0 + 1)
      and y2 = Array.unsafe_get panel (b0 + 2)
      and y3 = Array.unsafe_get panel (b0 + 3) in
      let x = Char.code (Bytes.unsafe_get a a0) in
      c00 := !c00 + (x * y0);
      c01 := !c01 + (x * y1);
      c02 := !c02 + (x * y2);
      c03 := !c03 + (x * y3);
      let x = Char.code (Bytes.unsafe_get a (a0 + k)) in
      c10 := !c10 + (x * y0);
      c11 := !c11 + (x * y1);
      c12 := !c12 + (x * y2);
      c13 := !c13 + (x * y3);
      pa := a0 + 1;
      pb := b0 + np
    done;
    let j = 2 * q in
    add_lanes acc j !c00;
    add_lanes acc (j + 2) !c01;
    add_lanes acc (j + 4) !c02;
    add_lanes acc (j + 6) !c03;
    let j = j + (2 * np) in
    add_lanes acc j !c10;
    add_lanes acc (j + 2) !c11;
    add_lanes acc (j + 4) !c12;
    add_lanes acc (j + 6) !c13;
    p0 := !p0 + kc
  done

let tile_2x1 a ai k panel np q acc =
  let p0 = ref 0 in
  while !p0 < k do
    let kc = if k - !p0 < kc_max then k - !p0 else kc_max in
    let c0 = ref 0 and c1 = ref 0 in
    let pa = ref (ai + !p0) and pb = ref ((!p0 * np) + q) in
    let pe = !pa + kc in
    while !pa < pe do
      let a0 = !pa and y = Array.unsafe_get panel !pb in
      c0 := !c0 + (Char.code (Bytes.unsafe_get a a0) * y);
      c1 := !c1 + (Char.code (Bytes.unsafe_get a (a0 + k)) * y);
      pa := a0 + 1;
      pb := !pb + np
    done;
    let j = 2 * q in
    add_lanes acc j !c0;
    add_lanes acc (j + (2 * np)) !c1;
    p0 := !p0 + kc
  done

let tile_1x4 a ai k panel np q acc =
  let p0 = ref 0 in
  while !p0 < k do
    let kc = if k - !p0 < kc_max then k - !p0 else kc_max in
    let c0 = ref 0 and c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
    let pa = ref (ai + !p0) and pb = ref ((!p0 * np) + q) in
    let pe = !pa + kc in
    while !pa < pe do
      let x = Char.code (Bytes.unsafe_get a !pa) and b0 = !pb in
      c0 := !c0 + (x * Array.unsafe_get panel b0);
      c1 := !c1 + (x * Array.unsafe_get panel (b0 + 1));
      c2 := !c2 + (x * Array.unsafe_get panel (b0 + 2));
      c3 := !c3 + (x * Array.unsafe_get panel (b0 + 3));
      incr pa;
      pb := b0 + np
    done;
    let j = 2 * q in
    add_lanes acc j !c0;
    add_lanes acc (j + 2) !c1;
    add_lanes acc (j + 4) !c2;
    add_lanes acc (j + 6) !c3;
    p0 := !p0 + kc
  done

let tile_1x1 a ai k panel np q acc =
  let p0 = ref 0 in
  while !p0 < k do
    let kc = if k - !p0 < kc_max then k - !p0 else kc_max in
    let c = ref 0 in
    let pa = ref (ai + !p0) and pb = ref ((!p0 * np) + q) in
    let pe = !pa + kc in
    while !pa < pe do
      c :=
        !c + (Char.code (Bytes.unsafe_get a !pa) * Array.unsafe_get panel !pb);
      incr pa;
      pb := !pb + np
    done;
    add_lanes acc (2 * q) !c;
    p0 := !p0 + kc
  done

(* Pack B [k x n] at [bo] into [panel] and return B's column sums. *)
let pack_pairs b bo k n np panel =
  let col_sum = Array.make n 0 in
  let half = n / 2 in
  for p = 0 to k - 1 do
    let src = bo + (p * n) and dst = p * np in
    for q = 0 to half - 1 do
      let j = 2 * q in
      let y0 = Char.code (Bytes.unsafe_get b (src + j))
      and y1 = Char.code (Bytes.unsafe_get b (src + j + 1)) in
      Array.unsafe_set col_sum j (Array.unsafe_get col_sum j + y0);
      Array.unsafe_set col_sum (j + 1) (Array.unsafe_get col_sum (j + 1) + y1);
      Array.unsafe_set panel (dst + q) (y0 lor (y1 lsl 32))
    done;
    if n > 2 * half then begin
      let y = Char.code (Bytes.unsafe_get b (src + n - 1)) in
      Array.unsafe_set col_sum (n - 1) (Array.unsafe_get col_sum (n - 1) + y);
      Array.unsafe_set panel (dst + half) y
    end
  done;
  col_sum

(* Where the rescaled results go: a float buffer, or codes against
   [lo, hi] (the fused requantize; [scale] is [levels /. (hi -. lo)]). *)
type sink = Floats of float array | Codes of Bytes.t * float * float

(* One [m,k] x [k,n] slice of packed codes, integer-accumulated and
   rescaled into [sink] at [obase] — the gemmlowp decomposition: with
   a = a_lo + sa*qa and b = b_lo + sb*qb,
     sum_p a_ip*b_pj = sa*sb*acc_ij + a_lo*sb*col_sum_j
                       + b_lo*sa*row_sum_i + a_lo*b_lo*k.
   Shards are disjoint row-pair ranges, and the float epilogue is a
   fixed expression of exact integer sums, so results are bit-identical
   across thread counts. The unchecked accessors rely on the bounds
   checked at entry. *)
let gemm_q_into ~m ~k ~n ~a ~ao ~b ~bo ~a_lo ~a_hi ~b_lo ~b_hi ~bias ~relu
    ~sink ~obase =
  let out_len =
    match sink with
    | Floats o -> Array.length o
    | Codes (d, _, _) -> Bytes.length d
  in
  let bias_ok =
    match bias with Some bs -> Array.length bs = n | None -> true
  in
  if
    m < 0 || k < 0 || n < 0 || ao < 0 || bo < 0 || obase < 0
    || Bytes.length a < ao + (m * k)
    || Bytes.length b < bo + (k * n)
    || out_len < obase + (m * n)
    || not bias_ok
  then invalid "QuantizedMatMul: operand buffers do not fit %dx%dx%d" m k n;
  let sa = scale_of a_lo a_hi and sb = scale_of b_lo b_hi in
  let np = (n + 1) / 2 in
  let panel = take_panel (k * np) in
  let col_sum = pack_pairs b bo k n np panel in
  let sab = sa *. sb and asb = a_lo *. sb in
  let col_term = Array.map (fun c -> asb *. float_of_int c) col_sum in
  let const_term = a_lo *. b_lo *. float_of_int k in
  let np4 = np - (np mod 4) and w = 2 * np in
  Parallel.parallel_for
    ~grain:(grain_for ~item_cost:(2 * k * n) ~target_work:32768)
    ((m + 1) / 2)
    (fun g0 g1 ->
      let acc = Array.make (2 * w) 0 in
      for g = g0 to g1 - 1 do
        let i = 2 * g in
        let ai = ao + (i * k) in
        let rows = if i + 1 < m then 2 else 1 in
        Array.fill acc 0 (2 * w) 0;
        if rows = 2 then begin
          let q = ref 0 in
          while !q < np4 do
            tile_2x4 a ai k panel np !q acc;
            q := !q + 4
          done;
          for q = np4 to np - 1 do
            tile_2x1 a ai k panel np q acc
          done
        end
        else begin
          let q = ref 0 in
          while !q < np4 do
            tile_1x4 a ai k panel np !q acc;
            q := !q + 4
          done;
          for q = np4 to np - 1 do
            tile_1x1 a ai k panel np q acc
          done
        end;
        for r = 0 to rows - 1 do
          let ar = ai + (r * k) in
          let rs = ref 0 in
          for p = ar to ar + k - 1 do
            rs := !rs + Char.code (Bytes.unsafe_get a p)
          done;
          let row_term = (b_lo *. sa *. float_of_int !rs) +. const_term in
          let ac = r * w and ob = obase + ((i + r) * n) in
          for j = 0 to n - 1 do
            let v =
              (sab *. float_of_int (Array.unsafe_get acc (ac + j)))
              +. Array.unsafe_get col_term j
              +. row_term
            in
            let v =
              match bias with None -> v | Some bs -> v +. Array.unsafe_get bs j
            in
            let v = if relu && v < 0.0 then 0.0 else v in
            match sink with
            | Floats out -> Array.unsafe_set out (ob + j) v
            | Codes (dst, lo, scale) ->
                Bytes.unsafe_set dst (ob + j) (encode ~lo ~scale v)
          done
        done
      done);
  Atomic.set panel_slot panel

(* The output tensor and its sink: floats, or codes against [out_range]. *)
let output op ~out_range shape =
  let len = Array.fold_left ( * ) 1 shape in
  match out_range with
  | None ->
      let o = Buffer_pool.alloc_float ~zero:false len in
      (Tensor.of_float_array shape o, Floats o)
  | Some (lo, hi) ->
      check_range op lo hi;
      let d = Buffer_pool.alloc_bytes len in
      (Tensor.of_bytes shape d, Codes (d, lo, levels /. (hi -. lo)))

let quantized_matmul ?bias ?(relu = false) ?out_range qa a_lo a_hi qb b_lo
    b_hi =
  let op = "QuantizedMatMul" in
  require_codes op "lhs" qa;
  require_codes op "rhs" qb;
  let sa = Tensor.shape qa and sb = Tensor.shape qb in
  let ra = Array.length sa and rb = Array.length sb in
  if ra < 2 || rb < 2 then
    invalid "%s: operands must be rank >= 2 (got ranks %d and %d)" op ra rb;
  let m = sa.(ra - 2) and k = sa.(ra - 1) in
  let kb = sb.(rb - 2) and n = sb.(rb - 1) in
  if kb <> k then invalid "%s: inner dims %d vs %d" op k kb;
  (* rhs is either a plain 2-D matrix shared by every batch slice of a
     (the common weights case) or batched alongside the lhs. *)
  let b_batched =
    if rb = 2 then false
    else begin
      if rb <> ra then
        invalid "%s: rhs must be 2-D or match lhs rank %d (got %d)" op ra rb;
      for i = 0 to ra - 3 do
        if sb.(i) <> sa.(i) then
          invalid "%s: batch dims %d vs %d at axis %d" op sa.(i) sb.(i) i
      done;
      true
    end
  in
  let batch = ref 1 in
  for i = 0 to ra - 3 do
    batch := !batch * sa.(i)
  done;
  let out_shape = Array.append (Array.sub sa 0 (ra - 2)) [| m; n |] in
  let bias = bias_vector op ~n bias in
  let out, sink = output op ~out_range out_shape in
  let a = Tensor.byte_buffer qa and b = Tensor.byte_buffer qb in
  for bi = 0 to !batch - 1 do
    gemm_q_into ~m ~k ~n ~a ~ao:(bi * m * k) ~b
      ~bo:(if b_batched then bi * k * n else 0)
      ~a_lo ~a_hi ~b_lo ~b_hi ~bias ~relu ~sink ~obase:(bi * m * n)
  done;
  out

(* im2col over codes: identical patch layout to Tensor_ops.im2col, but
   out-of-bounds (padding) entries hold the input's zero-point code —
   the code decoding to ~0.0 — so padding contributes (quantized) zeros
   to the contraction, matching the float conv's zero padding to within
   half a quantization step. Each filter row is one contiguous run of
   the input (its in-bounds columns times [ic] bytes), plus zero-point
   fills for the columns that fall in the padding. A run shorter than
   [short_run] bytes (conv1's five, at ic = 1) is a plain loop: a
   [Bytes.blit] or [Bytes.fill] there costs a C call for a few bytes.
   Both buffers' lengths are checked once at entry, so the loops run
   unchecked. *)
let short_run = 16

let[@inline] fill_run cols at len c =
  if len < short_run then
    for i = at to at + len - 1 do
      Bytes.unsafe_set cols i c
    done
  else Bytes.unsafe_fill cols at len c

let[@inline] copy_run src from cols at len =
  if len < short_run then
    for i = 0 to len - 1 do
      Bytes.unsafe_set cols (at + i) (Bytes.unsafe_get src (from + i))
    done
  else Bytes.unsafe_blit src from cols at len

let im2col_q src cols ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~sh ~sw ~ph ~pw ~rows ~zp =
  let kdim = fh * fw * ic and run = fw * ic and zc = Char.chr zp in
  if
    ih < 0 || iw < 0 || ic < 0 || fh < 0 || fw < 0 || rows < 0
    || (rows > 0 && (oh <= 0 || ow <= 0))
    || rows > 0
       && Bytes.length src < (rows + (oh * ow) - 1) / (oh * ow) * ih * iw * ic
    || Bytes.length cols < rows * kdim
  then
    invalid_arg
      (Printf.sprintf "Quant_kernels.im2col_q: buffers too short for %d rows"
         rows);
  Parallel.parallel_for
    ~grain:(grain_for ~item_cost:kdim ~target_work:16384)
    rows
    (fun lo hi ->
      (* Output pixel (b, y, x) of row rix, stepped without a division. *)
      let x = ref (lo mod ow) and y = ref (lo / ow mod oh) in
      let b = ref (lo / (ow * oh)) in
      for rix = lo to hi - 1 do
        let x0 = (!x * sw) - pw in
        (* filter columns [kx0, kx1) land inside the input row *)
        let kx0 = if x0 < 0 then -x0 else 0 in
        let kx1 = if iw - x0 < fw then iw - x0 else fw in
        for ky = 0 to fh - 1 do
          let sy = (!y * sh) + ky - ph in
          let cbase = (rix * kdim) + (ky * run) in
          if sy < 0 || sy >= ih || kx1 <= kx0 then fill_run cols cbase run zc
          else begin
            fill_run cols cbase (kx0 * ic) zc;
            copy_run src
              (((((!b * ih) + sy) * iw) + x0 + kx0) * ic)
              cols
              (cbase + (kx0 * ic))
              ((kx1 - kx0) * ic);
            fill_run cols (cbase + (kx1 * ic)) ((fw - kx1) * ic) zc
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
      done)

let quantized_conv2d ?bias ?(relu = false) ?out_range qin in_lo in_hi qf f_lo
    f_hi ~strides ~padding =
  let op = "QuantizedConv2D" in
  require_codes op "input" qin;
  require_codes op "filter" qf;
  let is = Tensor.shape qin and fs = Tensor.shape qf in
  if Array.length is <> 4 || Array.length fs <> 4 then
    invalid "%s: input NHWC and filter HWIO required" op;
  let batch = is.(0) and ih = is.(1) and iw = is.(2) and ic = is.(3) in
  let fh = fs.(0) and fw = fs.(1) and fic = fs.(2) and oc = fs.(3) in
  if ic <> fic then invalid "%s: channel mismatch %d vs %d" op ic fic;
  let sh, sw = strides in
  let oh, ph = Tensor_ops.conv_dim ~padding ~in_size:ih ~filter:fh ~stride:sh in
  let ow, pw = Tensor_ops.conv_dim ~padding ~in_size:iw ~filter:fw ~stride:sw in
  let rows = batch * oh * ow in
  let kdim = fh * fw * ic in
  let bias = bias_vector op ~n:oc bias in
  let out, sink = output op ~out_range [| batch; oh; ow; oc |] in
  let cols = take_bytes (rows * kdim) in
  im2col_q (Tensor.byte_buffer qin) cols ~ih ~iw ~ic ~fh ~fw ~oh ~ow ~sh ~sw
    ~ph ~pw ~rows ~zp:(zero_point in_lo in_hi);
  gemm_q_into ~m:rows ~k:kdim ~n:oc ~a:cols ~ao:0 ~b:(Tensor.byte_buffer qf)
    ~bo:0 ~a_lo:in_lo ~a_hi:in_hi ~b_lo:f_lo ~b_hi:f_hi ~bias ~relu ~sink
    ~obase:0;
  Atomic.set cols_slot cols;
  out

(* Kernel plumbing ---------------------------------------------------- *)

let scalar ctx i = Tensor.flat_get_f (K.input_tensor ctx i) 0

let range_outputs q lo hi =
  [| t q; t (Tensor.scalar_f lo); t (Tensor.scalar_f hi) |]

let strides_of node =
  match Node.attr_ints node "strides" with
  | [ a; b ] -> (a, b)
  | _ -> invalid "%s: strides must be a list of two ints" node.Node.name

let padding_of node =
  match Node.attr_string node "padding" with
  | "SAME" -> Tensor_ops.Same
  | "VALID" -> Tensor_ops.Valid
  | s -> invalid "%s: padding must be SAME or VALID, got %s" node.Node.name s

(* The codes-out contractions carry their fused epilogue as an attr:
   none | bias | relu | bias_relu; with bias the float bias vector is
   input 6. A calibrated output range rides as out_lo/out_hi attrs —
   absent, the kernel falls back to a dynamic min/max pass over the
   float intermediate. *)
let epilogue_of node =
  match
    Option.value ~default:"none"
      (Attr.find_string node.Node.attrs "epilogue")
  with
  | "none" -> (false, false)
  | "bias" -> (true, false)
  | "relu" -> (false, true)
  | "bias_relu" -> (true, true)
  | s -> invalid "%s: unknown epilogue %S" node.Node.name s

let out_range_of node =
  match
    ( Attr.find_float node.Node.attrs "out_lo",
      Attr.find_float node.Node.attrs "out_hi" )
  with
  | Some lo, Some hi -> Some (lo, hi)
  | _ -> None

(* With a calibrated range the contraction writes codes straight from
   its epilogue; without one it needs the float result's min/max. *)
let contract_q node contract =
  match out_range_of node with
  | Some (lo, hi) as out_range -> (contract ~out_range, lo, hi)
  | None ->
      (* The float intermediate is private: back to the pool. *)
      let f = contract ~out_range:None in
      let q = quantize f in
      Buffer_pool.release_float (Tensor.float_buffer f);
      q

let register () =
  K.register ~op_type:"Quantize" (fun ctx ->
      let q, lo, hi = quantize (K.input_tensor ctx 0) in
      range_outputs q lo hi);
  K.register ~op_type:"QuantizeRange" (fun ctx ->
      let node = ctx.K.node in
      let lo = Node.attr_float node "lo" and hi = Node.attr_float node "hi" in
      range_outputs (quantize_with_range (K.input_tensor ctx 0) lo hi) lo hi);
  K.register ~op_type:"Dequantize" (fun ctx ->
      let q = K.input_tensor ctx 0 in
      K.one (t (dequantize q (scalar ctx 1) (scalar ctx 2))));
  K.register ~op_type:"QuantizedMatMul" (fun ctx ->
      K.one
        (t
           (quantized_matmul (K.input_tensor ctx 0) (scalar ctx 1)
              (scalar ctx 2) (K.input_tensor ctx 3) (scalar ctx 4)
              (scalar ctx 5))));
  K.register ~op_type:"QuantizedConv2D" (fun ctx ->
      let node = ctx.K.node in
      K.one
        (t
           (quantized_conv2d (K.input_tensor ctx 0) (scalar ctx 1)
              (scalar ctx 2) (K.input_tensor ctx 3) (scalar ctx 4)
              (scalar ctx 5) ~strides:(strides_of node)
              ~padding:(padding_of node))));
  K.register ~op_type:"QuantizedMatMulQ" (fun ctx ->
      let node = ctx.K.node in
      let with_bias, relu = epilogue_of node in
      let bias = if with_bias then Some (K.input_tensor ctx 6) else None in
      let q, lo, hi =
        contract_q node (fun ~out_range ->
            quantized_matmul ?bias ~relu ?out_range (K.input_tensor ctx 0)
              (scalar ctx 1) (scalar ctx 2) (K.input_tensor ctx 3)
              (scalar ctx 4) (scalar ctx 5))
      in
      range_outputs q lo hi);
  K.register ~op_type:"QuantizedConv2DQ" (fun ctx ->
      let node = ctx.K.node in
      let with_bias, relu = epilogue_of node in
      let bias = if with_bias then Some (K.input_tensor ctx 6) else None in
      let q, lo, hi =
        contract_q node (fun ~out_range ->
            quantized_conv2d ?bias ~relu ?out_range (K.input_tensor ctx 0)
              (scalar ctx 1) (scalar ctx 2) (K.input_tensor ctx 3)
              (scalar ctx 4) (scalar ctx 5) ~strides:(strides_of node)
              ~padding:(padding_of node))
      in
      range_outputs q lo hi)
