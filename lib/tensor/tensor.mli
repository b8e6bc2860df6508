(** Dense n-dimensional tensors (§3.1 of the paper).

    All values flowing along dataflow edges are dense tensors with a
    primitive element type. Floating-point data is stored in an OCaml
    [float array] (unboxed); integral data in an [int array]. Sparse
    tensors are represented, as in the paper, by tuples of dense tensors
    (an index vector plus a value matrix) — see {!Octf_nn.Embedding}. *)

type buffer =
  | Float_buf of float array
  | Int_buf of int array
  | Byte_buf of Bytes.t  (** [U8]: packed, one byte per element *)
  | Bool_buf of bool array
  | String_buf of string array

type t = private { dtype : Dtype.t; shape : Shape.t; buf : buffer }

(** {1 Construction} *)

val create : Dtype.t -> Shape.t -> buffer -> t
(** @raise Invalid_argument if the buffer length or kind does not match
    the shape and dtype. *)

val zeros : Dtype.t -> Shape.t -> t

val empty : Dtype.t -> Shape.t -> t
(** Unspecified contents (a recycled buffer is not cleared): only for
    kernels that write every element. *)

val ones : Dtype.t -> Shape.t -> t

val full : Dtype.t -> Shape.t -> float -> t

val scalar_f : ?dtype:Dtype.t -> float -> t

val scalar_i : ?dtype:Dtype.t -> int -> t

val scalar_b : bool -> t

val scalar_s : string -> t

val of_float_array : ?dtype:Dtype.t -> Shape.t -> float array -> t

val of_int_array : ?dtype:Dtype.t -> Shape.t -> int array -> t

val of_bool_array : Shape.t -> bool array -> t

val of_bytes : Shape.t -> Bytes.t -> t
(** [of_bytes shape b] wraps a packed byte buffer as a [U8] tensor (one
    byte per element, no copy) — the storage form of 8-bit quantized
    codes (§5). *)

val of_string_array : Shape.t -> string array -> t

val init_f : ?dtype:Dtype.t -> Shape.t -> (int array -> float) -> t
(** [init_f shape f] fills element [idx] with [f idx]. *)

val iota : ?dtype:Dtype.t -> int -> t
(** [iota n] is the 1-D integer tensor [0; 1; ...; n-1]. *)

val uniform : ?dtype:Dtype.t -> Rng.t -> Shape.t -> lo:float -> hi:float -> t

val normal :
  ?dtype:Dtype.t -> Rng.t -> Shape.t -> mean:float -> stddev:float -> t

(** {1 Inspection} *)

val dtype : t -> Dtype.t

val shape : t -> Shape.t

val rank : t -> int

val numel : t -> int

val byte_size : t -> int
(** Serialized size in bytes: [numel * Dtype.byte_size dtype]. *)

val get_f : t -> int array -> float
(** Read an element as a float (works on any numeric or bool dtype). *)

val get_i : t -> int array -> int

val get_s : t -> int array -> string

val flat_get_f : t -> int -> float

val flat_get_i : t -> int -> int

val flat_set_f : t -> int -> float -> unit
(** Mutating writes are reserved for kernel implementations (variables own
    their buffers; everything else is copy-on-write by convention). *)

val flat_set_i : t -> int -> int -> unit

val to_float_array : t -> float array
(** A fresh float array of all elements; converts integer/bool data. *)

val to_int_array : t -> int array

val float_buffer : t -> float array
(** The underlying buffer without copy. @raise Invalid_argument if the
    tensor is not float-backed. *)

val int_buffer : t -> int array

val byte_buffer : t -> Bytes.t
(** Packed [U8] backing without copy. @raise Invalid_argument if the
    tensor is not uint8. *)

val bool_buffer : t -> bool array

val string_buffer : t -> string array

(** {1 Transformation} *)

val copy : t -> t

val blit_strided :
  src:t ->
  src_off:int ->
  src_strides:int array ->
  dst:t ->
  dst_off:int ->
  dst_strides:int array ->
  int array ->
  unit
(** Copies the box [dims]: for each multi-index [i < dims], element
    [src_off + sum i.(d) * src_strides.(d)] of [src] goes to
    [dst_off + sum i.(d) * dst_strides.(d)] of [dst], exactly, for every
    dtype. A source stride may be 0 (tile, broadcast); destination
    elements must be distinct and not share [src]'s buffer. Runs
    contiguous in both are one [Array.blit]/[Bytes.blit]; rows shard
    over the intra-op budget.
    @raise Invalid_argument, before copying, on a dtype mismatch, a
    negative dim or stride, or a box outside either buffer. *)

val reshape : t -> Shape.t -> t
(** Shares the buffer. At most one dimension may be [-1] (inferred).
    @raise Invalid_argument if element counts differ. *)

val cast : t -> Dtype.t -> t

val broadcast_index : t -> Shape.t -> int -> int
(** [broadcast_index t out_shape] maps a flat index of [out_shape] to
    the flat index of [t] under numpy broadcasting. Partial application
    precomputes the stride plan; the returned function allocates
    nothing, so kernels can iterate an output space once and read every
    operand directly. *)

val broadcast_strides : t -> Shape.t -> int array
(** Per dimension of [out_shape], the stride into [t] under numpy
    broadcasting: 0 on broadcast dimensions. *)

type bplan
(** A precomputed broadcast stride plan: per-dimension strides into a
    source tensor, with stride 0 on broadcast dimensions. *)

val broadcast_plan : t -> Shape.t -> bplan
(** [broadcast_plan t out_shape] builds the plan {!broadcast_index}
    uses internally; {!plan_index} applies it. Exposed so multi-operand
    kernels (the fused elementwise evaluator) can hold one plan per
    operand and map each output index without per-element closures. *)

val plan_index : bplan -> int -> int

val elementwise_grain : int
(** Minimum flat-index span worth sharding across the intra-op pool;
    below it dispatch overhead beats the loop. *)

val use_or_alloc : float array option -> int -> float array
(** [use_or_alloc out n] returns [out]'s buffer when it has exactly [n]
    elements (the executor's in-place grant), else a fresh pool
    allocation. *)

val fold_f : ('a -> float -> 'a) -> 'a -> t -> 'a

val equal : t -> t -> bool
(** Structural equality: dtype, shape and exact element equality. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Float comparison within absolute tolerance (default [1e-6]). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Compact rendering, truncated for large tensors. *)
