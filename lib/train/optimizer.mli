(** Optimization algorithms as user-level graph code (§4.1).

    The paper's parameter-server predecessor hard-coded the update rule
    (-=) in privileged C++; advanced schemes like Momentum required
    modifying the server. Here, exactly as in TensorFlow, every
    optimizer is a composition of [Variable], [Read], [Assign*] and
    arithmetic operations: accumulator "slots" are ordinary variables
    colocated with the parameter, and adding a new algorithm means
    writing a few lines against {!Octf.Builder}, not touching the
    runtime.

    Sparse gradients (from embedding lookups, §4.2) stay sparse for SGD
    and Adagrad, touching only the rows a step actually read: SGD
    applies them with [ScatterSub]; Adagrad sums duplicate rows once
    ([UniqueSegmentSum]) and runs the fused [SparseApplyAdagrad]. Both
    give the same bits as the dense update, because on a row no index
    names the dense update adds and subtracts exact zeros. Momentum,
    RMSProp, Adadelta and Adam decay every row on every step, so they
    densify the gradient; a sparse ("lazy") variant would be a different
    algorithm. Slots are created on their variable's requested
    device. *)

module B = Octf.Builder
module Vs = Octf_nn.Var_store

type algorithm =
  | Sgd
  | Momentum of { momentum : float }
  | Adagrad of { epsilon : float }
  | Rmsprop of { decay : float; epsilon : float }
  | Adadelta of { rho : float; epsilon : float }
  | Adam of { beta1 : float; beta2 : float; epsilon : float }

val momentum_default : algorithm

val adagrad_default : algorithm

val rmsprop_default : algorithm

val adadelta_default : algorithm

val adam_default : algorithm

val minimize :
  Vs.t ->
  ?algorithm:algorithm ->
  ?var_list:Vs.variable list ->
  ?clip_norm:float ->
  lr:float ->
  loss:B.output ->
  unit ->
  B.output
(** Build the gradient subgraph for [loss] w.r.t. the trainable variables
    (or [var_list]) and one update subgraph per variable; returns a
    single target executing every update. [clip_norm] rescales each
    gradient to at most the given L2 norm before applying (the §4.1
    gradient-clipping example); a sparse gradient is clipped on its
    deduplicated rows and stays sparse. *)

val minimize_with_rate :
  Vs.t ->
  ?algorithm:algorithm ->
  ?var_list:Vs.variable list ->
  ?clip_norm:float ->
  lr_t:B.output ->
  loss:B.output ->
  unit ->
  B.output
(** Like {!minimize} with the learning rate as a scalar graph output, so
    {!Schedule}s (decay driven by the global-step variable) plug in. *)

val apply_gradients :
  Vs.t ->
  ?algorithm:algorithm ->
  lr:float ->
  (Vs.variable * Octf.Gradients.grad) list ->
  B.output
(** Lower-level entry point: apply precomputed gradients — used by the
    synchronous-replica coordinator, which averages gradients from many
    workers before applying them (§4.4). *)

val apply_gradients_with_rate :
  Vs.t ->
  ?algorithm:algorithm ->
  lr_t:B.output ->
  (Vs.variable * Octf.Gradients.grad) list ->
  B.output

val clip_by_global_norm :
  B.t -> clip_norm:float -> B.output list -> B.output list
(** Rescale a gradient set so its joint L2 norm is at most [clip_norm]
    (Pascanu-style clipping, the §4.1 user-implemented example). *)
