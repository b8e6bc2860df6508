(** Operation kernels and the kernel registry (§5).

    A device executes a {e kernel} for each operation assigned to it.
    Multiple kernels may be registered for one operation type, with
    specialized implementations per device type; the placement algorithm
    consults the registry to compute each node's feasible device set.

    In this reproduction every kernel ultimately runs on the host CPU
    (simulated accelerators share implementations), but the registry
    machinery — including per-device registration and lookup with
    fallback — is faithful to the paper's design. *)

(** Execution context passed to a kernel. *)
type ctx = {
  node : Node.t;
  inputs : Value.t array;
  resources : Resource_manager.t;
  rendezvous : Rendezvous.t option;  (** present in partitioned steps *)
  rng : Octf_tensor.Rng.t option;
      (** the node's stream for this step and iteration; present only
          for an op registered [~random] (read it with {!rng}) *)
  step_id : int;
  cancel : Cancel.t option;
      (** the step's cancellation token; blocking kernels must pass it
          to their waits so deadlines and aborts wake them *)
  grants : (int * int) list;
      (** in-place grants issued by the executor's memory planner: each
          [(input_idx, output_idx)] pair licenses the kernel to write
          output [output_idx] into input [input_idx]'s backing buffer
          (the input's refcount is 1 and it is not fed, fetched or a
          variable's backing store). Empty unless the op declared
          [~aliases] at registration and planning is enabled. *)
  output_used : bool;
      (** some consumer or fetch of this step reads output 0. An update
          kernel whose output is the variable's new buffer hands that
          buffer out exactly when this is set
          ({!Resource.variable_update_in_place}). *)
  var_snapshot : (string -> Octf_tensor.Tensor.t option) option;
      (** when the pipelined engine admitted this step with versioned
          variable reads, maps a variable name to the value it held at
          admission. [Read] consults it so every read in the step sees
          one consistent snapshot (§4.4's async consistency); updates
          ([Assign*], [Scatter*]) always apply to the live variable in
          completion order. [None] for barrier-mode and synchronous
          steps — reads then go straight to the live variable. *)
}

type t = ctx -> Value.t array
(** A kernel maps input values to output values (possibly blocking, for
    queue operations). *)

exception Kernel_error of string * exn
(** [(node name, underlying failure)] — wraps kernel exceptions so step
    errors identify the failing operation. *)

val register :
  op_type:string ->
  ?devices:Device.device_type list ->
  ?aliases:(int * int) list ->
  ?random:bool ->
  t ->
  unit
(** Register one implementation for [op_type] on each listed device type
    (default [[CPU; GPU]]). Later registrations override.

    [aliases] declares May_alias [(input_idx, output_idx)] pairs: the
    kernel {e can} write that output into that input's buffer when the
    executor grants it (see {!type:ctx}[.grants]). Kernels read their
    grants through {!granted_buffer} / {!granted_input}.

    [random] (default false) marks an op whose kernel draws random
    numbers: only such a kernel gets a stream in its context. *)

val register_per_node :
  op_type:string ->
  ?devices:Device.device_type list ->
  ?aliases:(int * int) list ->
  ?random:bool ->
  (Node.t -> t) ->
  unit
(** Like {!register}, for a kernel that does per-node set-up (parsing
    attributes, compiling a program): the executor calls the builder
    once per plan node, when it builds the plan, and runs the returned
    kernel on every step. *)

val instantiate : device:Device.device_type -> Node.t -> t option
(** The kernel for one node on [device], built once; [None] when no
    kernel is registered for the node's op type on that device. *)

val aliases : op_type:string -> (int * int) list
(** Declared May_alias pairs for [op_type] (empty if none). *)

val random : op_type:string -> bool
(** Was [op_type] registered [~random]? *)

val rng : ctx -> Octf_tensor.Rng.t
(** The kernel's random stream.
    @raise Invalid_argument if its op was not registered [~random]. *)

val supported_devices : op_type:string -> Device.device_type list
(** Device types with a registered kernel; empty when unknown. *)

val is_registered : op_type:string -> bool

(** {1 Input projection helpers for kernel implementations} *)

val input_tensor : ctx -> int -> Octf_tensor.Tensor.t

val input_var : ctx -> int -> Resource.variable

val input_queue : ctx -> int -> Queue_impl.t

val all_input_tensors : ctx -> Octf_tensor.Tensor.t list

val one : Value.t -> Value.t array
(** Singleton output. *)

val snapshot_read : ctx -> Resource.variable -> Octf_tensor.Tensor.t
(** The variable's value as this step should observe it: the admission
    snapshot when the context carries one (and the variable was
    initialized at admission), the live value otherwise. *)

(** {1 In-place grant helpers} *)

val granted_input : ctx -> output:int -> Octf_tensor.Tensor.t option
(** The input tensor whose buffer was granted for [output], if any. *)

val granted_buffer : ctx -> output:int -> float array option
(** Float backing buffer granted for [output] — pass as [?out] to the
    {!Octf_tensor.Tensor_ops} elementwise ops. [None] when no grant was
    issued or the granted input is not float-backed. *)
