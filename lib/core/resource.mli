(** Mutable runtime state owned by stateful operations (§3.1).

    A [Variable] operation owns a mutable buffer holding model
    parameters; it produces a {e reference handle} — a typed capability
    for reading and writing the buffer — which flows along graph edges to
    [Read], [Assign*] and [Scatter*] operations. Queues work the same
    way. Resources live in a per-task {!Resource_manager}, so they
    persist across steps and are shared by concurrent steps. *)

open Octf_tensor

type variable = {
  var_name : string;
  var_dtype : Dtype.t;
  var_shape : Shape.t;
  mutable value : Tensor.t option;  (** [None] until initialized *)
  mutable version : int;
      (** bumped on every assign/update. Updates copy only while
          shared: a buffer that was handed out is never written again,
          so a [(value, version)] pair observed together is an
          immutable snapshot — the unit of the pipelined engine's
          versioned variable reads (§4.4's consistency model) *)
  mutable shared : bool;
      (** the current buffer has left the variable: a {!variable_read},
          a {!variable_peek} or an update that handed it out as its
          output. Cleared when the variable installs a buffer it owns.
          While set, {!variable_update_in_place} copies first. *)
  var_mutex : Mutex.t;
}

(** A record iterator: the state behind the Reader operations of
    Figure 1's I/O subgraph. Records are consumed once, in order. *)
type iterator = {
  it_name : string;
  mutable it_records : string list;  (** remaining records *)
  it_mutex : Mutex.t;
}

(** A growable array of tensors written at explicit indices — the
    per-iteration accumulator behind dynamic loops (§3.4's
    "accumulating intermediate values over long sequences"; §4.1's GPU
    memory management for iteration). *)
type tensor_array = {
  ta_name : string;
  mutable ta_items : Tensor.t option array;
  ta_mutex : Mutex.t;
}

type t =
  | Variable of variable
  | Queue of Queue_impl.t
  | Iterator of iterator
  | Tensor_array of tensor_array

val make_variable : name:string -> dtype:Dtype.t -> shape:Shape.t -> variable

val make_iterator : name:string -> records:string list -> iterator

val iterator_next : iterator -> string option
(** Pop the next record; [None] when exhausted. Thread-safe. *)

val make_tensor_array : name:string -> tensor_array

val tensor_array_write : tensor_array -> int -> Tensor.t -> unit
(** @raise Invalid_argument on a negative index or double write. *)

val tensor_array_read : tensor_array -> int -> Tensor.t
(** @raise Failure on an unwritten index. *)

val tensor_array_size : tensor_array -> int
(** One past the highest written index. *)

val tensor_array_stack : tensor_array -> Tensor.t list
(** All written elements in index order.
    @raise Failure if any index below the size is unwritten. *)

val variable_read : variable -> Tensor.t
(** The current buffer, handed out: the variable is marked shared, so
    the tensor keeps its values whatever updates follow.
    @raise Failure if the variable has not been initialized (assigned). *)

val variable_gather : variable -> Tensor.t -> Tensor.t
(** [variable_gather v indices] copies the rows [indices] names out of
    the current value under the variable's lock ({!Tensor_ops.gather});
    the buffer itself is not handed out.
    @raise Failure if the variable has not been initialized. *)

val variable_assign : variable -> Tensor.t -> unit
(** Replace the value. @raise Invalid_argument on dtype/shape mismatch
    (shape is fixed by the first assignment when declared unknown). *)

val variable_update :
  hand_out:bool -> variable -> (Tensor.t -> Tensor.t) -> Tensor.t
(** Atomically replace the value with [f value] and return the new value;
    this is the associative-combiner write the parameter-server
    architecture specializes (§2.2). [f] must not write its argument
    and must return a tensor nothing else holds. [hand_out] says the
    caller hands the returned tensor out, which marks the variable
    shared; an update kernel passes whether its output is read in the
    step. *)

val variable_update_in_place :
  hand_out:bool -> variable -> (Tensor.t -> unit) -> Tensor.t
(** [variable_update_in_place ~hand_out v f] applies [f] to a buffer
    the variable owns and installs it: the current one when it is not
    shared, else a copy (copy only while shared). [f] must raise, if at
    all, before it writes. Returns the installed tensor; [hand_out] as
    for {!variable_update}. *)

val variable_version : variable -> int
(** The number of assigns/updates applied so far (0 = uninitialized). *)

val variable_peek : variable -> (Tensor.t * int) option
(** The current [(value, version)] snapshot, atomically; [None] until
    initialized. The tensor is handed out (the variable is marked
    shared, and updates copy only while shared), so the pair stays a
    consistent snapshot after the lock is dropped. *)

val name : t -> string

val pp : Format.formatter -> t -> unit
