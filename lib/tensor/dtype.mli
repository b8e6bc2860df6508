(** Element types for tensors.

    The paper (§3.1) models all data as dense tensors whose elements have
    one of a small number of primitive types. We support the types the
    experiments need: 32/64-bit floats, 32/64-bit integers, unsigned
    8-bit integers (quantized codes, §5), booleans and strings. Floats
    are stored in OCaml [float array]s (64-bit) and integers in OCaml
    [int]s: [F32] and [I32] are semantic tags, not storage. [U8] tensors are
    packed one byte per element ([Bytes.t] backing), which is what buys
    quantized weights their ~4x memory cut over [F32]. *)

type t = F32 | F64 | I32 | I64 | U8 | Bool | String

val equal : t -> t -> bool

val to_string : t -> string

val of_string : string -> t
(** Inverse of {!to_string}. @raise Invalid_argument on unknown names. *)

val is_floating : t -> bool

val is_integer : t -> bool

val byte_size : t -> int
(** Nominal width of one element in bytes, used for byte accounting
    (rendezvous bytes, live-memory plans, weight cuts); 0 for [String]
    (variable). Not the encoded width: {!Codec} writes 8 bytes per F32,
    I32 and Bool element. *)

val pp : Format.formatter -> t -> unit
