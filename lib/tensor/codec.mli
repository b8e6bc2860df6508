(** The one binary codec for tensors that leave a process.

    Send/Recv payloads ([Octf_net.Wire]), checkpoint files
    ([Octf.Checkpoint_format], §4.3) and Figure 1's record examples
    ([Octf.Record_format]) all encode tensors through this module, so
    the three share one layout and one hardened decoder.

    Layout, all little-endian: a tensor is its dtype name as a string,
    a u32 rank, one i64 per dimension, a u32 element count, then the
    elements. F32, F64, I32, I64 and Bool elements take 8 bytes each
    (floats as IEEE doubles, the rest as i64), U8 elements 1 byte, and
    String elements a u32 length prefix plus their bytes. Strings and
    lists carry a u32 length prefix. Elements are 8 bytes wide because
    storage is 64-bit ({!Dtype}): a narrower encoding of F32 or I32
    would change the values that cross, and a partitioned step must
    match its single-device run bit for bit.

    The decoder walks a cursor with a bounds check on every read, so
    malformed input raises {!Decode_error} — never [Invalid_argument],
    [End_of_file] or a wild allocation. Every count is bounded by the
    bytes left before anything is allocated for it. *)

exception Decode_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Decode_error} with a formatted detail. *)

(** {1 Writers} *)

val put_u8 : Buffer.t -> int -> unit

val put_u32 : Buffer.t -> int -> unit

val put_i64 : Buffer.t -> int -> unit

val put_f64 : Buffer.t -> float -> unit

val put_string : Buffer.t -> string -> unit

val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

val put_tensor : Buffer.t -> Tensor.t -> unit

val put_named : Buffer.t -> (string * Tensor.t) list -> unit
(** A list of (name, tensor) pairs: the body of a checkpoint and of a
    record example. *)

(** {1 Reader} *)

type reader

val reader : string -> reader

val remaining : reader -> int

val get_u8 : reader -> int

val get_u32 : reader -> int
(** Unsigned: the result is in [0, 2^32). *)

val get_i64 : reader -> int

val get_f64 : reader -> float

val get_bytes : reader -> int -> string -> string
(** [get_bytes r n what] reads [n] raw bytes; [what] names them in the
    error. *)

val get_string : reader -> string

val get_list : reader -> (reader -> 'a) -> 'a list

val get_option : reader -> (reader -> 'a) -> 'a option

val get_tensor : reader -> Tensor.t

val get_named : reader -> (string * Tensor.t) list

val expect_end : reader -> unit
(** @raise Decode_error if bytes are left. *)

(** {1 Integrity and files} *)

val checksum : string -> int
(** Positional byte sum ([acc + (i+1) * byte], masked to 30 bits):
    catches transpositions as well as changed bytes, and fits a u32. *)

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path contents] writes a temp file and renames it
    over [path]; on failure the channel is closed and the temp file
    removed. *)

val read_file : string -> string
