(** Memory-planning policy: static aliasing/freshness facts about op
    types, the process-wide enable switch, and the planner's metrics.

    The per-execution lifetime analysis (refcounting stored values,
    dropping them when the last consumer fires, granting in-place
    buffer reuse, recycling freed buffers through
    {!Octf_tensor.Buffer_pool}) lives in {!Executor}; it consults this
    module for everything that is a property of the op type rather than
    of the particular execution. *)

val enabled : unit -> bool
(** Process-wide default: on, until {!set_enabled} overrides it.  A
    session's [Config.memory_planning] overrides it per session. *)

val set_enabled : bool -> unit

val fresh_output_op : string -> bool
(** Every output of this op type is a freshly allocated buffer shared
    with no other value.  False for pass-through ops, buffer-sharing
    reshapes, variable/queue/rendezvous state, and anything unknown. *)

val retains_input : string -> bool
(** This op type may keep a reference to an input tensor beyond its own
    execution (variable/queue/rendezvous stores, pass-throughs,
    buffer-sharing reshapes).  Endpoints with such a consumer must not
    recycle their buffer through the pool when dropped. *)

(** {1 Metrics}

    [octf_mem_live_bytes] / [octf_mem_peak_bytes] gauges,
    [octf_mem_pool_{hits,misses,evictions}] mirrors of
    {!Octf_tensor.Buffer_pool.stats}, and
    [octf_mem_inplace_grants_total]. *)

val live_add : int -> unit
(** Add bytes to the live gauge and raise the peak watermark. *)

val live_sub : int -> unit
val live_bytes : unit -> int
val count_grant : unit -> unit

val sync_pool_metrics : unit -> unit
(** Copy {!Octf_tensor.Buffer_pool.stats} into the pool gauges; the
    executor calls this at step boundaries (lib/tensor cannot depend on
    {!Metrics} directly). *)
