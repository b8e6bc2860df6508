(** Domain-safe recycling pool for tensor backing buffers.

    Freed float buffers and uint8 code buffers are binned by exact
    element count and handed
    back to subsequent allocations of the same size.  Total pooled
    bytes are bounded ([OCTF_BUFFER_POOL_MB], default 256; see
    {!set_limit_mb}) — releases past the bound are dropped and counted
    as evictions.  Taking from the pool is always safe; the releaser
    must guarantee the buffer is unreachable. *)

type stats = {
  hits : int;  (** allocations served from the pool *)
  misses : int;  (** pool-eligible allocations that fell through *)
  evictions : int;  (** releases dropped because the pool was full *)
  pooled_bytes : int;  (** bytes currently held in free lists *)
}

val alloc_float : ?zero:bool -> int -> float array
(** [alloc_float n] returns a float buffer of exactly [n] elements,
    recycled when possible.  [~zero:false] skips clearing a recycled
    buffer — only for callers that overwrite every element.  Small
    allocations bypass the pool. *)

val release_float : float array -> unit
(** Return a buffer to the pool.  Caller asserts no live references. *)

val alloc_bytes : int -> Bytes.t
(** [alloc_bytes n] returns a byte buffer of exactly [n] bytes, recycled
    when possible; its contents are unspecified (as [Bytes.create]'s), so
    the caller overwrites every byte.  Small allocations bypass the
    pool. *)

val release_bytes : Bytes.t -> unit
(** Return a byte buffer to the pool.  Caller asserts no live
    references. *)

val env : int Env.t
(** [OCTF_BUFFER_POOL_MB], an integer >= 0: the initial bound in MB. *)

val set_limit_mb : int -> unit
(** Bound the pool's total retained bytes. *)

val stats : unit -> stats
val clear : unit -> unit
(** Drop all pooled buffers and reset counters (tests, benchmarks). *)
