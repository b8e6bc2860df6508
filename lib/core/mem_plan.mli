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

    Published per step, not per node: [octf_mem_live_bytes] /
    [octf_mem_peak_bytes] gauges,
    [octf_mem_pool_{hits,misses,evictions}] mirrors of
    {!Octf_tensor.Buffer_pool.stats}, and
    [octf_mem_inplace_grants_total]. *)

val live_add : int -> int
(** Add bytes to the process-wide live count (lock-free); returns the
    new count, which the caller folds into its step's peak. *)

val live_sub : int -> unit
val live_bytes : unit -> int

val publish : peak:int -> grants:int -> unit
(** The step boundary: set the live gauge to the live count, raise the
    peak gauge to [peak], add [grants] to the grant counter, and copy
    {!Octf_tensor.Buffer_pool.stats} into the pool gauges (lib/tensor
    cannot depend on {!Metrics} directly). *)
