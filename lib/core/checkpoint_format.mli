(** On-disk checkpoint format used by the [Save] and [Restore] operations
    (§4.3).

    A checkpoint is a single binary file: the magic ["OCTFCKPT2"]
    followed by an {!Octf_tensor.Codec} named list (a count, then per
    tensor its name, dtype, shape and elements). The format is deliberately simple — the paper's point is that save and
    restore are ordinary dataflow operations composed in user-level code,
    not that the file format is clever. *)

open Octf_tensor

exception Corrupt of { source : string; detail : string }
(** Malformed checkpoint: bad magic, truncation anywhere (a torn write
    of the header, a tensor record or its data), a length / rank /
    dimension / element-count field out of range, or an unknown dtype.
    [source] is the file path. Every malformed-input path raises this —
    never a bare [End_of_file] or [Invalid_argument] — so the [Restore]
    kernel surfaces a half-written checkpoint as a structured step
    failure the {!Octf_train.Supervisor} can fall back from. *)

val write : string -> (string * Tensor.t) list -> unit
(** [write path entries] atomically writes all named tensors (via a
    temp-file rename). *)

val read_all : string -> (string * Tensor.t) list
(** Every length field is validated against the bytes actually left in
    the file before allocation. A file written before the magic bump
    (["OCTFCKPT1"]) fails with ["bad magic"].
    @raise Corrupt on a malformed or truncated file. *)

val read : string -> string -> Tensor.t
(** [read path name] extracts a single named tensor.
    @raise Not_found if the name is absent. *)

val names : string -> string list
