(** Mathematical operations on dense tensors.

    These are the pure functions behind the runtime's operation kernels
    (§5 of the paper): elementwise arithmetic with broadcasting, matrix
    multiplication, 2-D convolution and pooling, reductions, array
    manipulation, and the sparse-access primitives (Gather,
    DynamicPartition, DynamicStitch) that §4.2 builds sharded embedding
    layers from. All functions are non-mutating. *)

(** {1 Elementwise (broadcasting)}

    Each is a one-op program of the elementwise engine ({!Fused_eval}),
    compiled once. All accept [?out], a preallocated output buffer the
    executor's memory planner may supply when it has proved the buffer
    can be reused in place (it may alias an operand's backing store —
    see {!Fused_eval.run}).  Buffers of the wrong length are ignored.
    Operands share one dtype (F32/F64, or I32/I64 computed exactly for
    Add, Sub, Mul, Maximum and Minimum). *)

val add : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t

val sub : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t

val mul : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t

val div : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t

val maximum : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t

val minimum : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t

val pow : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t

val modulo : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t
(** Floor-mod with TensorFlow FloorMod semantics: the result has the
    divisor's sign and [modulo x y = x - floor(x / y) * y] for fractional
    operands (no truncation to integer). *)

val neg : ?out:float array -> Tensor.t -> Tensor.t

val abs : ?out:float array -> Tensor.t -> Tensor.t

val sign : ?out:float array -> Tensor.t -> Tensor.t

val exp : ?out:float array -> Tensor.t -> Tensor.t

val log : ?out:float array -> Tensor.t -> Tensor.t

val sqrt : ?out:float array -> Tensor.t -> Tensor.t

val square : ?out:float array -> Tensor.t -> Tensor.t

val reciprocal : ?out:float array -> Tensor.t -> Tensor.t

val relu : ?out:float array -> Tensor.t -> Tensor.t

val relu_grad : ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t
(** [relu_grad dy x] is [dy] where [x > 0], else [0]. *)

val sigmoid : ?out:float array -> Tensor.t -> Tensor.t

val tanh : ?out:float array -> Tensor.t -> Tensor.t

(** {1 Comparison and selection} *)

(** Comparisons broadcast, accept any numeric or bool operands (exact
    when both are integer) and return [Bool]. *)

val equal : Tensor.t -> Tensor.t -> Tensor.t

val less : Tensor.t -> Tensor.t -> Tensor.t

val greater : Tensor.t -> Tensor.t -> Tensor.t

val greater_equal : Tensor.t -> Tensor.t -> Tensor.t

val select : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [select cond a b]: elementwise [if cond then a else b]; [cond] is a
    bool (or numeric, non-zero = true) tensor broadcastable against
    [a]/[b]. Single broadcast-indexed pass: only the output is
    allocated. *)

(** {1 Linear algebra} *)

val matmul :
  ?transpose_a:bool -> ?transpose_b:bool -> Tensor.t -> Tensor.t -> Tensor.t
(** 2-D matrix product. All four transpose variants run the same
    register-blocked kernel, reading a transposed operand through
    swapped strides; rows are sharded across the intra-op thread budget
    ({!Parallel}). Each output element accumulates its products in
    ascending contraction order from [+0.0], so results are
    bit-identical for every thread count, and [0 * nan] / [0 * inf]
    terms give NaN as IEEE requires.
    @raise Invalid_argument on non-2-D input or inner dimension
    mismatch. *)

val transpose : ?perm:int array -> Tensor.t -> Tensor.t
(** General axis permutation; default reverses all axes. *)

(** {1 Reductions} *)

val reduce_sum : ?axes:int list -> ?keep_dims:bool -> Tensor.t -> Tensor.t

val reduce_mean : ?axes:int list -> ?keep_dims:bool -> Tensor.t -> Tensor.t

val reduce_max : ?axes:int list -> ?keep_dims:bool -> Tensor.t -> Tensor.t

val argmax : Tensor.t -> axis:int -> Tensor.t
(** Integer tensor of indices of maxima along [axis]. *)

(** {1 Array manipulation} *)

(** These ops and the sparse-access ones below move elements exactly,
    for every dtype, with {!Tensor.blit_strided}. Mixed input dtypes
    raise [Invalid_argument] naming both. *)

val concat : Tensor.t list -> axis:int -> Tensor.t

val stack : Tensor.t list -> Tensor.t
(** Same-shape tensors stacked along a new leading axis. *)

val split : Tensor.t -> axis:int -> num:int -> Tensor.t list
(** Even split. @raise Invalid_argument if the axis is not divisible. *)

val slice : Tensor.t -> begin_:int array -> size:int array -> Tensor.t

val pad : Tensor.t -> paddings:(int * int) array -> Tensor.t
(** Zero padding; [paddings.(i)] is [(before, after)] for axis [i]. *)

val tile : Tensor.t -> multiples:int array -> Tensor.t

val broadcast_to : Tensor.t -> Shape.t -> Tensor.t

val one_hot : Tensor.t -> depth:int -> Tensor.t
(** [one_hot indices ~depth] appends a size-[depth] one-hot axis. *)

(** {1 Sparse access primitives (§4.2)} *)

val gather : Tensor.t -> Tensor.t -> Tensor.t
(** [gather params indices] selects rows (axis 0) of [params]; the result
    shape is [shape indices @ (shape params).(1..)]. *)

val scatter_add : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [scatter_add acc indices updates] returns a copy of [acc] with
    [updates] rows added at [indices] (duplicates accumulate in order of
    occurrence). Float and integer dtypes; integers stay exact.
    @raise Invalid_argument, before any write, on an index out of
    range, a size or dtype mismatch, or another dtype (named). *)

val scatter_sub : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** Like {!scatter_add}, subtracting the rows. *)

val scatter_into_shape : Shape.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [scatter_into_shape shape indices updates] is {!scatter_add} into
    zeros of [shape] (the dense form of a sparse gradient). *)

val unique_segment_sum : Tensor.t -> Tensor.t -> Tensor.t * Tensor.t
(** [unique_segment_sum indices values] deduplicates a sparse gradient:
    the distinct [indices] (I32/I64, any shape) sorted ascending, and
    for each the sum of its [values] rows. Each sum starts from +0.0 (0)
    and adds the duplicates in order of occurrence, so row [k] equals
    row [unique.(k)] of {!scatter_into_shape}. [values] has shape
    [shape indices @ tail]; the sums have shape [[|u|] @ tail]. *)

val sparse_apply_adagrad :
  var:Tensor.t ->
  accum:Tensor.t ->
  lr:Tensor.t ->
  epsilon:float ->
  Tensor.t ->
  Tensor.t ->
  Tensor.t * Tensor.t
(** [sparse_apply_adagrad ~var ~accum ~lr ~epsilon indices values]
    returns fresh copies [(var', accum')] with Adagrad applied to the
    rows [indices] names: per element [acc += g*g] then
    [var -= (lr*g) / (sqrt acc + epsilon)], the dense update's order.
    @raise Invalid_argument, before copying, unless [indices] are
    strictly increasing and in range, [lr] is a scalar, and the float
    shapes and dtypes agree. *)

val dynamic_partition : Tensor.t -> Tensor.t -> num:int -> Tensor.t list
(** [dynamic_partition data partitions ~num] splits rows of [data] into
    [num] tensors according to the partition id of each row. *)

val dynamic_stitch : Tensor.t list -> Tensor.t list -> Tensor.t
(** [dynamic_stitch indices data] inverts {!dynamic_partition}: element
    rows of [data.(p)] land at row [indices.(p).(i)] of the result; rows
    no index names are zero. *)

(** {1 Neural-network math} *)

type padding = Same | Valid

val conv_dim :
  padding:padding -> in_size:int -> filter:int -> stride:int -> int * int
(** [(out_size, pad_before)] for one spatial axis — the arithmetic
    shared by [conv2d], its gradients, and the quantized convolution
    ({!Octf.Quant_kernels}). *)

val im2col :
  float array ->
  ih:int ->
  iw:int ->
  ic:int ->
  fh:int ->
  fw:int ->
  oh:int ->
  ow:int ->
  sh:int ->
  sw:int ->
  ph:int ->
  pw:int ->
  rows:int ->
  float array
(** [im2col input ~rows ...] unrolls the patches of an NHWC input
    ([ih x iw x ic] per image) into a [rows x fh*fw*ic] row-major matrix,
    one row per output pixel (image, y, x) of an [oh x ow] output at
    strides [sh, sw] and pad-before [ph, pw]; taps in the padding are
    [0.0]. Its columns line up with HWIO filter rows, so [conv2d] and
    both of its gradients are this plus one GEMM. The result is a
    {!Buffer_pool} buffer the caller may release.
    @raise Invalid_argument if [input] is shorter than the
    [ceil (rows / (oh*ow))] images the rows read. *)

val conv2d :
  Tensor.t -> Tensor.t -> strides:int * int -> padding:padding -> Tensor.t
(** [conv2d input filter]: input is NHWC [batch; h; w; in_c], filter is
    [fh; fw; in_c; out_c]. *)

val conv2d_grad_input :
  input_shape:Shape.t ->
  Tensor.t ->
  Tensor.t ->
  strides:int * int ->
  padding:padding ->
  Tensor.t
(** Gradient of conv2d w.r.t. its input: [conv2d_grad_input ~input_shape
    filter dy]. *)

val conv2d_grad_filter :
  filter_shape:Shape.t ->
  Tensor.t ->
  Tensor.t ->
  strides:int * int ->
  padding:padding ->
  Tensor.t
(** Gradient of conv2d w.r.t. the filter: [conv2d_grad_filter
    ~filter_shape input dy]. *)

val max_pool :
  Tensor.t -> ksize:int * int -> strides:int * int -> padding:padding ->
  Tensor.t
(** Max pooling over an NHWC tensor of floats or of [U8] codes; the
    result has the input's dtype. Codes pool as the floats they decode
    to: the affine decode of a uint8 code is monotone, so
    [dequantize (max_pool codes)] equals [max_pool (dequantize codes)]
    bit for bit, and int8 graphs pool without leaving codes. Float
    results equal a per-window scan in (ky, kx) order with [Float.max],
    NaN and signed zeros included. Every SAME or VALID window holds at
    least one input cell.
    @raise Invalid_argument on a tensor that is not rank 4, or neither
    float nor [U8]. *)

val max_pool_grad :
  Tensor.t ->
  Tensor.t ->
  ksize:int * int ->
  strides:int * int ->
  padding:padding ->
  Tensor.t
(** [max_pool_grad input dy ...] routes [dy] back to each window's argmax. *)

val avg_pool :
  Tensor.t -> ksize:int * int -> strides:int * int -> padding:padding ->
  Tensor.t
(** Average pooling over an NHWC float tensor: each window's sum, in
    (ky, kx) order, divided by its count of input cells (padding cells
    do not count). *)

val softmax : Tensor.t -> Tensor.t
(** Row softmax of a 2-D tensor (numerically stabilized). *)

val log_softmax : Tensor.t -> Tensor.t

val softmax_cross_entropy : logits:Tensor.t -> labels:Tensor.t -> Tensor.t
(** Per-example loss vector; [labels] is a distribution per row. *)

val softmax_cross_entropy_grad :
  logits:Tensor.t -> labels:Tensor.t -> Tensor.t
(** d(sum of per-example losses)/d(logits) = softmax(logits) - labels. *)
