(** The elementwise engine: one compiled program per elementwise kernel.

    Every elementwise kernel runs here. A standalone op (Neg, Add with
    broadcasting, ReluGrad, a comparison, ...) is a one-op program;
    [AddN] of k inputs is the left fold {!add_n}; the optimizer's Fuse
    pass collapses a tree of pure elementwise operations into one
    [FusedElementwise] node whose "expr" attribute is {!to_postfix} of
    the tree. {!compile} resolves an expression's loops, stack depth and
    input count once — the kernels compile when the executor builds its
    plan, or once per process for the standalone ops — and {!run}
    evaluates it in one sharded pass over the output.

    Per call a program allocates the output and, per shard, at most one
    scratch chunk of 256 elements per stack slot (on the minor heap);
    it shares no mutable state between calls, so one program serves
    concurrent steps, pool workers and intra-op shards. Inputs shaped
    like the output are read in place, a scalar is filled into a
    scratch chunk, and a suffix broadcast (a bias [[C]] over [[N; C]]) is read in place
    or loaded by [Array.blit] runs.

    Results are bit-identical to executing the operations one kernel at
    a time, at every thread count: every op applies the same scalar
    formula in the same operand order to each element independently,
    and broadcast projections compose (an input's stride plan against
    the final output shape equals the chained per-op plans). I32/I64
    tensors compute Add, Sub, Mul, Maximum, Minimum, ReluGrad, Neg, Abs,
    Sign, Square, Relu and the comparisons exactly in integer
    arithmetic; Div, Pow, Mod and the transcendental unaries go through
    float and truncate with [int_of_float]. Every op's result is an
    integer, so fused and unfused integer expressions agree too. *)

type expr =
  | Input of int  (** [Input k]: the k-th data input *)
  | Unary of string * expr  (** graph op_type, e.g. ["Neg"], ["Tanh"] *)
  | Binary of string * expr * expr
      (** e.g. ["Add"], ["ReluGrad"]; a comparison only at the root *)

val is_unary : string -> bool
(** Unary ops of the engine (and of the Fuse pass): Neg, Abs, Sign,
    Exp, Log, Sqrt, Square, Reciprocal, Relu, Sigmoid, Tanh. *)

val is_binary : string -> bool
(** Binary ops of the engine (and of the Fuse pass): Add, Sub, Mul,
    Div, Pow, Mod, Maximum, Minimum, ReluGrad. *)

val is_compare : string -> bool
(** Comparisons with a [Bool] result: Equal, Less, Greater,
    GreaterEqual. They may only be a program's root and are not fused. *)

val add_n : int -> expr
(** [add_n k] is [((in0 + in1) + in2) + ...], the order AddN sums in.
    @raise Invalid_argument if [k < 1]. *)

val to_postfix : expr -> string list
(** Serialize to postfix tokens: ["in<k>"] for inputs, the op_type for
    operations. *)

val of_postfix : string list -> expr
(** @raise Invalid_argument on unknown tokens or stack mismatch. *)

type program
(** A compiled expression; immutable, so it may be shared freely. *)

val compile : expr -> program
(** @raise Invalid_argument on an unknown op, a negative input index or
    a comparison below the root. *)

val run : ?out:float array -> program -> Tensor.t array -> Tensor.t
(** Evaluate over the inputs' broadcast shape. Inputs must share one
    dtype, F32/F64 or I32/I64, which is the result's; a comparison
    accepts any numeric or bool operands (exact when both are integer)
    and returns [Bool]. [?out] accepts the executor's in-place grant for
    a float result: it is used when its length is the output's element
    count and may be an input's buffer (element i is read before it is
    written); otherwise a buffer is allocated.
    @raise Invalid_argument on missing inputs, mixed dtypes or an
    unsupported dtype. *)
