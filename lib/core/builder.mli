(** Graph-construction API — the "client library" of §3.

    A builder wraps a {!Graph.t} with name scoping, device scoping and
    control-dependency scoping, and offers one constructor per operation.
    Constructors return {!output} endpoints that later constructors (and
    {!Session} fetches, {!Gradients}) consume.

    Everything here is unprivileged composition of primitive operations:
    the optimizers, embedding layers, checkpointing and synchronous
    coordination of §4 are all built on this API without touching the
    runtime. *)

open Octf_tensor

type t

(** One output slot of a node. *)
type output = { node : Node.t; out : int }

val create : unit -> t

val graph : t -> Graph.t

val output : ?index:int -> Node.t -> output

val endpoint_of_output : output -> Node.endpoint

(** {1 Scoping} *)

val with_device : t -> string -> (unit -> 'a) -> 'a
(** Push a (possibly partial) device spec, e.g.
    ["/job:ps/task:0"]; nested scopes merge, conflicts raise. *)

val colocate_with : t -> output -> (unit -> 'a) -> 'a
(** Ops created inside take [o]'s node's requested device in place of
    every enclosing device scope (TF's [colocate_with]); optimizer slots
    are created this way next to their variable. *)

val with_name_scope : t -> string -> (unit -> 'a) -> 'a
(** Prefix default node names with ["scope/"]. *)

val with_control_dependencies : t -> output list -> (unit -> 'a) -> 'a
(** Ops created inside run after the given outputs' nodes. *)

(** {1 Generic constructor} *)

val op :
  t ->
  ?name:string ->
  ?attrs:(string * Attr.t) list ->
  ?device:string ->
  ?control_inputs:output list ->
  op_type:string ->
  output list ->
  Node.t
(** Escape hatch used by all the typed constructors below. *)

(** {1 Sources} *)

val const : t -> ?name:string -> Tensor.t -> output

val const_f : t -> ?name:string -> float -> output

val const_i : t -> ?name:string -> int -> output

val const_s : t -> ?name:string -> string -> output

val placeholder : t -> ?name:string -> ?shape:Shape.t -> Dtype.t -> output

val variable : t -> ?name:string -> ?device:string -> dtype:Dtype.t -> shape:Shape.t -> unit -> output

val fill : t -> ?name:string -> Shape.t -> float -> output

val random_uniform :
  t -> ?name:string -> ?lo:float -> ?hi:float -> Shape.t -> output

val random_normal :
  t -> ?name:string -> ?mean:float -> ?stddev:float -> Shape.t -> output

(** {1 State} *)

val read : t -> ?name:string -> output -> output

val assign : t -> ?name:string -> output -> output -> output

val assign_add : t -> ?name:string -> output -> output -> output

val assign_sub : t -> ?name:string -> output -> output -> output

val scatter_add : t -> ?name:string -> output -> output -> output -> output
(** [scatter_add b var indices updates]. *)

val scatter_sub : t -> ?name:string -> output -> output -> output -> output

val scatter_update : t -> ?name:string -> output -> output -> output -> output

val sparse_apply_adagrad :
  t ->
  ?name:string ->
  epsilon:float ->
  output ->
  output ->
  lr:output ->
  output ->
  output ->
  output
(** [sparse_apply_adagrad b ~epsilon var accum ~lr indices values]: TF's
    [SparseApplyAdagrad] on the variable and accumulator handles, for
    strictly increasing [indices] (as {!unique_segment_sum} emits);
    yields the variable's new value. *)

val count_up : t -> ?name:string -> output -> output
(** Atomic fetch-and-add(1) on a scalar variable. *)

(** {1 Math} *)

val add : t -> ?name:string -> output -> output -> output

val sub : t -> ?name:string -> output -> output -> output

val mul : t -> ?name:string -> output -> output -> output

val div : t -> ?name:string -> output -> output -> output

val pow : t -> ?name:string -> output -> output -> output

val modulo : t -> ?name:string -> output -> output -> output
(** Integer remainder (used for mod-sharding of embedding rows, §4.2). *)

val maximum : t -> ?name:string -> output -> output -> output

val minimum : t -> ?name:string -> output -> output -> output

val neg : t -> ?name:string -> output -> output

val abs : t -> ?name:string -> output -> output

val sign : t -> ?name:string -> output -> output

val exp : t -> ?name:string -> output -> output

val log : t -> ?name:string -> output -> output

val sqrt : t -> ?name:string -> output -> output

val square : t -> ?name:string -> output -> output

val reciprocal : t -> ?name:string -> output -> output

val add_n : t -> ?name:string -> output list -> output

val matmul :
  t ->
  ?name:string ->
  ?transpose_a:bool ->
  ?transpose_b:bool ->
  output ->
  output ->
  output

val equal : t -> ?name:string -> output -> output -> output

val less : t -> ?name:string -> output -> output -> output

val greater : t -> ?name:string -> output -> output -> output

val greater_equal : t -> ?name:string -> output -> output -> output

val select : t -> ?name:string -> output -> output -> output -> output

val cast : t -> ?name:string -> output -> Dtype.t -> output

val argmax : t -> ?name:string -> output -> axis:int -> output

val reduce_sum :
  t -> ?name:string -> ?axes:int list -> ?keep_dims:bool -> output -> output

val reduce_mean :
  t -> ?name:string -> ?axes:int list -> ?keep_dims:bool -> output -> output

val reduce_max :
  t -> ?name:string -> ?axes:int list -> ?keep_dims:bool -> output -> output

val shape_of : t -> ?name:string -> output -> output

val sum_to_shape : t -> ?name:string -> output -> output -> output
(** [sum_to_shape b x target_shape]: reduce [x]'s broadcast axes so it has
    the given (runtime) shape; used by gradients of broadcasting ops. *)

val zeros_like : t -> ?name:string -> output -> output

val ones_like : t -> ?name:string -> output -> output

(** {1 Array} *)

val identity : t -> ?name:string -> output -> output

val stop_gradient : t -> ?name:string -> output -> output

val reshape : t -> ?name:string -> output -> Shape.t -> output

val expand_dims : t -> ?name:string -> output -> axis:int -> output
(** Insert a size-1 axis at [axis] (negative counts from the end). *)

val reshape_like : t -> ?name:string -> output -> output -> output
(** [reshape_like b x like]: [x] reshaped to [like]'s runtime shape. *)

val transpose : t -> ?name:string -> ?perm:int array -> output -> output

val concat : t -> ?name:string -> axis:int -> output list -> output

val slice :
  t -> ?name:string -> output -> begin_:int array -> size:int array -> output

val pad : t -> ?name:string -> output -> paddings:(int * int) array -> output

val tile : t -> ?name:string -> output -> multiples:int array -> output

val pack : t -> ?name:string -> output list -> output
(** Stack same-shape tensors along a new leading axis. *)

val unpack : t -> ?name:string -> output -> num:int -> output list
(** Inverse of {!pack}: the [num] slices of the leading axis. *)

val split : t -> ?name:string -> output -> axis:int -> num:int -> output list
(** Even split along [axis]. *)

val one_hot : t -> ?name:string -> output -> depth:int -> output

val gather : t -> ?name:string -> output -> output -> output

val range_like : t -> ?name:string -> output -> output
(** 1-D int tensor [0 .. numel x) of the input's runtime element count. *)

val random_indices : t -> ?name:string -> n:int -> range:int -> unit -> output
(** [n] uniform class ids in [0, range): the candidate sampler for
    sampled softmax (§4.2). Stateful; a fresh sample per step. *)

val dynamic_partition :
  t -> ?name:string -> output -> output -> num:int -> output list

val dynamic_stitch :
  t -> ?name:string -> output list -> output list -> output

val scatter_into_shape :
  t -> ?name:string -> output -> output -> output -> output
(** [scatter_into_shape b shape indices updates]: dense tensor of the
    given shape with update rows accumulated at [indices]. *)

val unique_segment_sum :
  t -> ?name:string -> output -> output -> output * output
(** [unique_segment_sum b indices values]: the sorted distinct indices
    and each one's summed [values] rows, added from +0.0 in order of
    occurrence (the rows {!scatter_into_shape} would hold). *)

(** {1 Neural nets} *)

val relu : t -> ?name:string -> output -> output

val relu_grad : t -> ?name:string -> output -> output -> output

val sigmoid : t -> ?name:string -> output -> output

val tanh : t -> ?name:string -> output -> output

val softmax : t -> ?name:string -> output -> output

val log_softmax : t -> ?name:string -> output -> output

val softmax_cross_entropy :
  t -> ?name:string -> logits:output -> labels:output -> unit -> output * output
(** Returns (per-example loss, cached backprop). *)

val conv2d :
  t ->
  ?name:string ->
  strides:int * int ->
  padding:[ `Same | `Valid ] ->
  output ->
  output ->
  output

val max_pool :
  t ->
  ?name:string ->
  ksize:int * int ->
  strides:int * int ->
  padding:[ `Same | `Valid ] ->
  output ->
  output

val avg_pool :
  t ->
  ?name:string ->
  ksize:int * int ->
  strides:int * int ->
  padding:[ `Same | `Valid ] ->
  output ->
  output

(** {1 Quantization (§5)}

    8-bit affine quantization for fast inference: a float tensor becomes
    integer codes plus a (min, max) range; [quantized_matmul] accumulates
    the codes in integer arithmetic (the gemmlowp scheme) and yields the
    rescaled float product. *)

val quantize : t -> ?name:string -> output -> output * output * output
(** (codes, min, max). *)

val dequantize : t -> ?name:string -> output -> output -> output -> output

val quantized_matmul :
  t ->
  ?name:string ->
  output * output * output ->
  output * output * output ->
  output

val quantize_range :
  t -> ?name:string -> lo:float -> hi:float -> output -> output * output * output
(** Quantize against a fixed (calibrated) range carried as attrs; the
    range scalars are echoed as outputs 1 and 2 so the codes plug into
    the same consumers as {!quantize}. *)

val quantized_conv2d :
  t ->
  ?name:string ->
  strides:int * int ->
  padding:[ `Same | `Valid ] ->
  output * output * output ->
  output * output * output ->
  output
(** Quantized NHWC x HWIO convolution producing the rescaled float
    result: [(codes, lo, hi)] triples for input and filter. *)

val quantized_matmul_q :
  t ->
  ?name:string ->
  ?epilogue:[ `None | `Bias | `Relu | `Bias_relu ] ->
  ?out_range:float * float ->
  ?bias:output ->
  output * output * output ->
  output * output * output ->
  output * output * output
(** Codes-out quantized matmul: integer product, optional fused bias /
    ReLU epilogue, requantized to [(codes, lo, hi)] — against
    [out_range] when given, else a dynamic min/max pass. *)

val quantized_conv2d_q :
  t ->
  ?name:string ->
  ?epilogue:[ `None | `Bias | `Relu | `Bias_relu ] ->
  ?out_range:float * float ->
  ?bias:output ->
  strides:int * int ->
  padding:[ `Same | `Valid ] ->
  output * output * output ->
  output * output * output ->
  output * output * output
(** Codes-out quantized convolution; see {!quantized_matmul_q}. *)

(** {1 Queues} *)

val fifo_queue :
  t -> ?name:string -> capacity:int -> num_components:int -> unit -> output

val random_shuffle_queue :
  t ->
  ?name:string ->
  ?seed:int ->
  capacity:int ->
  num_components:int ->
  unit ->
  output

val enqueue : t -> ?name:string -> output -> output list -> output
(** Returns the (output-less) op as a fetchable target handle: use the
    node as a step target. The returned output has index 0 but carries no
    value; pass its node to [Session.run ~targets]. *)

val enqueue_many : t -> ?name:string -> output -> output list -> output

val dequeue : t -> ?name:string -> output -> num_components:int -> output list

val dequeue_many :
  t -> ?name:string -> output -> n:int -> num_components:int -> output list

val queue_close : t -> ?name:string -> output -> output

val queue_size : t -> ?name:string -> output -> output

(** {1 Checkpointing} *)

val save :
  t -> ?name:string -> filename:output -> (string * output) list -> output
(** [save b ~filename entries]: write named tensors; returns the target
    handle. *)

val restore :
  t -> ?name:string -> filename:output -> string list -> output list

(** {1 Tensor arrays (§3.4)}

    Per-index accumulators for values produced across loop iterations:
    create one outside the loop, pass the handle in through
    [~invariants], write at the iteration index inside the body, and
    stack after the [Exit]. Like every resource the array persists
    across steps, so re-running the same loop step needs a fresh array
    (or session); writes to an already-written index fail loudly. *)

val tensor_array : t -> ?name:string -> unit -> output

val tensor_array_write :
  t -> ?name:string -> output -> output -> output -> output
(** [tensor_array_write b handle index value]: returns [value] as a flow
    token ordering downstream reads after the write. *)

val tensor_array_read : t -> ?name:string -> output -> output -> output

val tensor_array_size : t -> ?name:string -> output -> output

val tensor_array_stack : t -> ?name:string -> output -> output
(** All written elements packed along a new leading axis. *)

(** {1 Input records (Figure 1's I/O subgraph)} *)

val record_reader : t -> ?name:string -> files:string list -> unit -> output
(** A Reader over record files ({!Record_format}); emits a reference
    handle. State persists across steps, so concurrent preprocessing
    steps each pull distinct records. *)

val read_record : t -> ?name:string -> output -> output
(** Next record as a string scalar. When the reader is exhausted the
    step fails with an end-of-input error, which pipeline fillers treat
    as end-of-stream. *)

val decode_example :
  t -> ?name:string -> output -> features:string list -> output list
(** Parse an {!Record_format.encode_example} record into the named
    feature tensors. *)

(** {1 Control flow (§3.4)} *)

val no_op : t -> ?name:string -> ?control_inputs:output list -> unit -> output

val group : t -> ?name:string -> output list -> output
(** A NoOp with control dependencies on all arguments — the usual
    "training op" bundling several updates. *)

val switch : t -> ?name:string -> output -> output -> output * output
(** [switch b data pred] returns (false branch, true branch). *)

val merge : t -> ?name:string -> output list -> output

val cond :
  t ->
  ?name:string ->
  output ->
  inputs:output list ->
  then_:(t -> output list -> output list) ->
  else_:(t -> output list -> output list) ->
  output list
(** Non-strict conditional (Figure 2): each input is demultiplexed by a
    [Switch] on the predicate, each branch function sees only its side's
    endpoints, and results are joined by [Merge]. Only the taken branch
    executes. Branches must return lists of the same length. *)

val while_loop :
  t ->
  ?name:string ->
  ?invariants:output list ->
  cond:(t -> output list -> output) ->
  body:(t -> output list -> output list) ->
  output list ->
  output list
(** Timely-dataflow-style iteration: loop variables Enter a named frame,
    cycle through Merge → Switch → body → NextIteration, and leave
    through Exit when [cond] is false. [invariants] are loop-invariant
    external values made available in every iteration ([Enter] with
    [is_constant]); both the [cond] and [body] callbacks receive the live
    loop variables followed by the entered invariants, and [body] must
    return exactly one output per loop variable. Returns the Exit
    outputs.

    Closures must not introduce fresh source operations (e.g. constants)
    inside the loop: every external value has to arrive through the loop
    variables or [invariants], or the executor rejects the step with a
    frame-crossing error. *)
