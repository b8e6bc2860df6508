(** Record files — the "distributed file system" input format of
    Figure 1.

    The paper's training pipelines start with an I/O subgraph whose
    Reader operations pull records from files; this module provides the
    on-disk container (length-prefixed records with a checksum, in the
    spirit of TFRecord) and an Example codec serializing a set of named
    tensors into one record: an {!Octf_tensor.Codec} named list, the
    same layout as a checkpoint's body. Reader kernels ({!Io_kernels}) iterate the
    container; {!Octf_data} writes datasets into it. *)

open Octf_tensor

exception Corrupt of { source : string; detail : string }
(** Malformed record data: bad magic, a length field that exceeds the
    bytes left, a checksum mismatch, truncation mid-record, or an
    undecodable example. [source] is the file path (or ["<record>"] for
    in-memory example strings). Every malformed-input path raises this
    — never a bare [End_of_file], [Invalid_argument] or [Failure] — so
    reader kernels surface torn writes as structured step failures. *)

(** {1 Container} *)

val write_records : string -> string list -> unit
(** Write a record file atomically (temp-file rename). *)

val read_records : string -> string list
(** Reads records until the file position sits exactly at end-of-file;
    a file that ends mid-record (torn append, truncation) is corrupt,
    not short. A file written before the magic bump (["OCTFREC1"])
    fails with ["bad magic"].
    @raise Corrupt on bad magic, truncation or a checksum mismatch. *)

val append_records : string -> string list -> unit
(** Append to an existing record file (or create it). The file is
    rewritten through a temp-file rename, so a failed append leaves the
    old contents whole. *)

(** {1 Examples: named-tensor records} *)

val encode_example : (string * Tensor.t) list -> string

val decode_example : string -> (string * Tensor.t) list
(** @raise Corrupt on malformed input (truncated fields, unknown dtype,
    out-of-range rank or dimensions, an element count the bytes cannot
    hold, trailing bytes). *)
