(** Quantization kernels (§5): 8-bit affine quantization in the
    TF/gemmlowp style, for fast low-precision inference.

    A float tensor is mapped onto the 0..255 code range with its
    [(min, max)] carried alongside as two scalar tensors; codes travel
    in packed uint8 tensors (one byte per element — a 4x memory cut
    over float32 weights). The quantized contractions accumulate the
    8-bit codes in integer arithmetic (the gemmlowp decomposition) and
    rescale to float; the [...Q] kernel variants requantize the result
    so consecutive quantized islands exchange codes directly.

    Both contractions run one register-blocked integer GEMM: the rhs
    codes are packed two columns per OCaml int (bits 0-31 and from bit
    32), so one multiply by an lhs code forms two products, and a 2x4
    tile of lane pairs (2 rows x 8 columns) accumulates in locals. [k]
    runs in chunks of at most 33,025 so the high lane (at most
    255*255*k) stays below 2^31. Given an [?out_range], the epilogue
    writes codes directly, bit-identical to {!quantize_with_range} of
    the float result. The im2col buffer and the packed panel are reused
    across calls through single-slot caches that concurrent callers
    never share.

    The kernel registrations ([Quantize], [QuantizeRange],
    [Dequantize], [QuantizedMatMul], [QuantizedConv2D],
    [QuantizedMatMulQ], [QuantizedConv2DQ]) are internal —
    {!Builtin_kernels.ensure} installs them; the arithmetic is exposed
    here for tests and the calibration/benchmark tooling.

    Shape and dtype violations raise {!Step_failure.Error} with an
    [Invalid_graph] cause (never bare [Invalid_argument]), so bad
    quantized graphs surface through the session's typed error path. *)

open Octf_tensor

val levels : float
(** Number of quantization steps spanning a range: [255.0]. *)

val range_of : Tensor.t -> float * float
(** Min/max of the finite elements of a float tensor, widened to
    include [0.0] and to a non-degenerate interval (a constant tensor
    [c] yields a unit-wide range). Infinities do not widen the range;
    they clamp to its ends when quantized.
    @raise Step_failure.Error ([Invalid_graph]) on a non-float tensor. *)

val zero_point : float -> float -> int
(** [zero_point lo hi]: the code decoding nearest to [0.0]; always in
    [0..255] because ranges include zero. *)

val quantize : Tensor.t -> Tensor.t * float * float
(** [quantize t] is [(codes, lo, hi)]: packed uint8 codes in 0..255
    plus the float range they decode against, with the range derived
    from the tensor via {!range_of}. *)

val quantize_with_range : Tensor.t -> float -> float -> Tensor.t
(** [quantize_with_range t lo hi]: codes against a caller-supplied
    (e.g. calibrated) range; values outside clamp to the range ends.
    @raise Step_failure.Error ([Invalid_graph]) when [lo] or [hi] is not
    finite, when [hi <= lo], or when [t] is not a float tensor. *)

val dequantize : Tensor.t -> float -> float -> Tensor.t
(** [dequantize codes lo hi] reconstructs the float tensor from uint8
    (or int-backed) codes.
    @raise Step_failure.Error ([Invalid_graph]) on other dtypes. *)

val quantized_matmul :
  ?bias:Tensor.t ->
  ?relu:bool ->
  ?out_range:float * float ->
  Tensor.t ->
  float ->
  float ->
  Tensor.t ->
  float ->
  float ->
  Tensor.t
(** [quantized_matmul qa a_lo a_hi qb b_lo b_hi]: integer-accumulated
    product of two quantized operands, rescaled to float. [qa] may be
    batched (rank >= 2, last two dims [m,k]); [qb] is either 2-D
    (weights shared across batch slices) or batched alongside [qa].
    [?bias] (a length-n float vector) and [?relu] fuse the usual
    inference epilogue. With [~out_range:(lo, hi)] the result is uint8
    codes against that range instead of floats, bit-identical to
    [quantize_with_range] of the float result. Deterministic across
    thread counts.
    @raise Step_failure.Error ([Invalid_graph]) on rank/shape/dtype
    violations. *)

val quantized_conv2d :
  ?bias:Tensor.t ->
  ?relu:bool ->
  ?out_range:float * float ->
  Tensor.t ->
  float ->
  float ->
  Tensor.t ->
  float ->
  float ->
  strides:int * int ->
  padding:Tensor_ops.padding ->
  Tensor.t
(** [quantized_conv2d qin in_lo in_hi qfilter f_lo f_hi]: quantized
    NHWC x HWIO convolution — im2col over the packed codes (padding
    filled with the input's {!zero_point}, which decodes to ~0.0) into
    the shared integer GEMM core. Epilogues as in {!quantized_matmul}.
    @raise Step_failure.Error ([Invalid_graph]) on rank/shape/dtype
    violations. *)

val register : unit -> unit
(** Install the kernels; called by {!Builtin_kernels.ensure}. *)
