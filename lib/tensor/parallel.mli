(** Intra-op parallelism: a grain-aware parallel-for over worker threads.

    The second parallelism axis of the paper's CPU kernels (§3.1, §5):
    where {!Octf.Scheduler} runs {e independent} dataflow nodes
    concurrently (inter-op), this module shards the element loop of a
    {e single} kernel across cores (intra-op), the way Eigen's device
    threadpool does for TensorFlow's CPU kernels.

    The module is backend-agnostic: the runtime installs a
    task-submission function at initialisation ({!Octf.Domain_pool}
    wires itself in), and until then every [parallel_for] is a plain
    serial loop. Scheduling is caller-runs — the calling thread claims
    chunks alongside the submitted helpers — so a kernel already running
    on a pool worker can shard onto the same pool without deadlock, and
    small loops never pay a dispatch.

    Kernels built on this module are deterministic: shards are disjoint
    contiguous ranges and every output element's accumulation order is
    independent of the shard layout, so results are bit-identical across
    thread counts (see the intra-op test suite). *)

val env : int Env.t
(** [OCTF_INTRA_OP_THREADS], an integer >= 1: the initial thread budget. *)

val threads : unit -> int
(** The current intra-op thread budget. Defaults to [OCTF_INTRA_OP_THREADS],
    else [Domain.recommended_domain_count ()]; {!set_threads} overrides it. *)

val set_threads : int -> unit
(** Set the process-wide intra-op thread budget (a hardware-resource
    knob, like TensorFlow's [intra_op_parallelism_threads]). [1] makes
    every kernel run its serial loop.
    @raise Invalid_argument when the count is < 1. *)

val parallel_for : ?grain:int -> int -> (int -> int -> unit) -> unit
(** [parallel_for ~grain n body] executes [body lo hi] over disjoint
    contiguous chunks covering [0, n). Runs serially (one [body 0 n]
    call on the calling thread) when [n <= grain], the thread budget is
    1, no backend is installed, or the caller is already inside a
    [parallel_for] (no nested parallelism). Otherwise splits into at
    most [threads ()] chunks of at least [grain] items and runs them on
    the backend plus the calling thread. [grain] defaults to 1024 items;
    pass the per-item cost scaled value for expensive bodies.

    Exceptions raised by [body] are re-raised on the calling thread
    after all chunks finish. [body] must not block. *)

val domain_shards : unit -> int
(** Shards dispatched by [parallel_for] calls made {e from this domain}
    since process start. The executor samples this around a kernel
    invocation to attribute per-node shard counts in {!Octf.Step_stats}. *)

(** {1 Runtime wiring} *)

val set_backend : ((unit -> unit) -> unit) -> unit
(** Install the helper-task submission function. Called once at runtime
    initialisation by {!Octf.Domain_pool}; tasks must run eventually and
    must not be dropped. *)

val set_shard_hook : (int -> unit) -> unit
(** Install an observability callback invoked with the shard count of
    every parallel (non-serial) [parallel_for]; {!Octf} points it at the
    process metrics registry. *)
