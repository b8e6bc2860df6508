(** Client sessions and the distributed master (§3.2–3.3, §5).

    A session owns the mapping from step definitions to compiled
    subgraphs: given feeds, fetches and targets, it prunes the graph,
    applies master-side optimizations, places operations on devices,
    partitions the result into per-device subgraphs with [Send]/[Recv]
    pairs, and {e caches} the compiled step so a large graph can be
    re-executed with one cheap call per step (§3.3's low-latency repeated
    execution). Multi-device steps run one executor per partition, all
    on the calling thread as fibers of {!Scheduler.run_parts},
    synchronized through a per-step {!Rendezvous}.

    Sessions are safe to call from several threads at once; concurrent
    steps coordinate through the shared stateful operations exactly as in
    the paper (Figure 1's concurrent training / input / checkpoint
    loops).

    {2 Pipelined execution}

    {!run_async} admits up to [max_in_flight] (K) steps concurrently —
    the paper's asynchronous training, where step N+1 starts before
    step N's updates land. Each admitted step snapshots every variable
    (a copy-on-write [(value, version)] pair, so snapshots are O(1)):
    its [Read] kernels see the admission-time versions while its
    updates apply to the live variables in completion order. At K = 1
    — the default, and forced by [barrier:true] — async steps
    serialize and read live state, bit-identical to the synchronous
    session. {!drain} quiesces the pipeline (checkpointing, shutdown). *)

open Octf_tensor

type t

exception Run_error of Step_failure.t
(** Every step failure — kernel error, deadline expiry, cancellation,
    injected fault, invalid graph, bad fetch — surfaces as this one
    exception carrying the failing node, its device, and a structured
    cause. Render with {!Step_failure.to_string}. *)

(** Construction-time configuration — TensorFlow's [ConfigProto], the
    one way to configure a session. {!of_env} resolves every [None]
    field: [Config] field > built-in default, where the scheduler's
    default comes from [OCTF_SCHEDULER] and memory planning's from the
    process-wide {!Mem_plan.enabled}. CLI front-ends build a [Config]
    with [Some] only for flags the user actually passed. *)
module Config : sig
  type t = {
    devices : Device.t list option;
        (** default: a single local CPU *)
    resource_router : (Device.t -> Resource_manager.t) option;
        (** maps a device to the resource manager of the task owning it
            (see {!Cluster}); default: all devices share one manager *)
    seed : int option;  (** graph-level RNG seed; default 42 *)
    passes : Graph_optimizer.pass list option;
        (** master-side optimization pipeline run per step compilation
            (after the implicit initial prune); default
            {!Graph_optimizer.default_pipeline}. [[]] disables
            everything but pruning. *)
    scheduler : Scheduler.policy option;
        (** execution policy for every step; default [OCTF_SCHEDULER],
            else inline. [Scheduler.Pool] runs independent kernels of
            one step in parallel with bit-identical results. *)
    intra_op_threads : int option;
        (** {e process-wide} intra-op thread budget for kernel loops
            ({!Octf_tensor.Parallel.set_threads}); unset leaves the
            budget alone ([OCTF_INTRA_OP_THREADS], else the core count).
            Bit-identical for every value. *)
    memory_planning : bool option;
        (** whether steps run the executor's lifetime analysis (eager
            drops, buffer-pool reuse, in-place grants); default
            {!Mem_plan.enabled} (on unless {!Mem_plan.set_enabled}
            turned it off). Fetches are bit-identical either way. *)
    fusion : bool option;
        (** whether the default pipeline includes the elementwise fuse
            pass ({!Graph_optimizer.fused_pipeline} vs
            {!Graph_optimizer.default_pipeline}); default on. Ignored
            when [passes] is set explicitly. Fetches are bit-identical
            either way. *)
    quantize : bool option;
        (** whether the default pipeline appends the int8
            {!Graph_optimizer.Quantize} pass (uncalibrated — dynamic
            activation ranges) plus a prune; default {e off} —
            quantized kernels change numerics, so this is opt-in,
            unlike [fusion]. Ignored when [passes] is set explicitly.
            The pass only rewrites contractions whose weights are F32
            [Const]s, so it is inert on training graphs; for calibrated
            serving use {!Octf_serving.Serving}'s freeze with ranges. *)
    max_in_flight : int option;
        (** K ≥ 1 bound on concurrent {!run_async} steps; default 1 *)
    barrier : bool;
        (** force K = 1 regardless of [max_in_flight] — the
            fully-synchronous legacy pipeline (default false) *)
    remote : Remote.runner option;
        (** out-of-process runtime ([Octf_net]): partitions placed on
            devices the runner does not report
            {!Remote.runner.is_local} are dispatched to their owning
            task as Run_step RPCs *)
  }

  val default : t
  (** Every field unset: resolve from [OCTF_SCHEDULER] / built-ins. *)

  val of_env : t -> t
  (** Fill each unset field that has a default — [seed], [scheduler],
      [memory_planning], [fusion], [quantize] and [max_in_flight]. An
      unset [scheduler] reads [OCTF_SCHEDULER], else inline.
      @raise Invalid_argument if [OCTF_SCHEDULER] is read and holds a
      value outside its accepted set. *)

  val v :
    ?devices:Device.t list ->
    ?resource_router:(Device.t -> Resource_manager.t) ->
    ?seed:int ->
    ?passes:Graph_optimizer.pass list ->
    ?scheduler:Scheduler.policy ->
    ?intra_op_threads:int ->
    ?memory_planning:bool ->
    ?fusion:bool ->
    ?quantize:bool ->
    ?max_in_flight:int ->
    ?barrier:bool ->
    ?remote:Remote.runner ->
    unit ->
    t
end

val create : ?config:Config.t -> Graph.t -> t
(** [create ~config graph] builds a session over [graph], resolving
    [config] (default {!Config.default}) with {!Config.of_env}; see
    {!Config} for every knob and its default. [Config.v ~passes:[] ()]
    turns every optimization but pruning off.
    @raise Invalid_argument if the resolved [max_in_flight < 1] or a
    read [OCTF_SCHEDULER] holds a value outside its accepted set. *)

val graph : t -> Graph.t

val scheduler : t -> Scheduler.policy
(** The execution policy this session's steps run under. *)

val resources : t -> Resource_manager.t
(** The default resource manager (variables, queues). *)

val resources_for : t -> Device.t -> Resource_manager.t

(** Per-step execution options — TensorFlow's [RunOptions]. One value
    gathers what used to be a growing tail of optional arguments:
    feeds, targets, a step deadline, and the observability switches. *)
module Run_options : sig
  type t = {
    feeds : (Builder.output * Tensor.t) list;
    targets : Builder.output list;  (** run for effect only *)
    deadline : float option;  (** step budget in seconds *)
    trace : bool;  (** collect {!Tracer} events *)
    collect_stats : bool;  (** build {!Step_stats} for the step *)
    cancel : Cancel.t option;
        (** parent token: cancelling it cancels this step (pipeline
            filler groups) *)
    tracer : Tracer.t option;
        (** record into this shared tracer instead of a fresh one —
            lets overlapping pipelined steps land in one timeline *)
  }

  val default : t
  (** No feeds, no targets, no deadline, no tracing, no stats, no
      parent token, no shared tracer. *)

  val v :
    ?feeds:(Builder.output * Tensor.t) list ->
    ?targets:Builder.output list ->
    ?deadline:float ->
    ?trace:bool ->
    ?collect_stats:bool ->
    ?cancel:Cancel.t ->
    ?tracer:Tracer.t ->
    unit ->
    t
end

(** What one step reports back — TensorFlow's [RunMetadata]. *)
module Run_metadata : sig
  type t = {
    step_id : int;  (** the session-wide id of this step *)
    wall_time : float;  (** whole-step wall-clock seconds *)
    step_stats : Step_stats.t option;
        (** present iff [collect_stats] was set *)
    tracer : Tracer.t option;
        (** present iff [trace] or [collect_stats] was set *)
  }
end

val run_with_metadata :
  ?options:Run_options.t ->
  t ->
  Builder.output list ->
  Tensor.t list * Run_metadata.t
(** The primary entry point: execute one step under [options] (default
    {!Run_options.default}) and return the fetched tensors plus the
    step's metadata. When [options.collect_stats] is set, the metadata
    carries a {!Step_stats.t} whose {!Step_stats.total_time} equals
    [Tracer.total_time] of the same step's tracer — both sum the same
    per-kernel durations.

    {!run} and {!run_unit} are thin wrappers over this function;
    [Run_options.v ~trace:true ()] collects the step's {!Tracer}
    events — the §5 distributed profiler.

    @raise Run_error as {!run} does. *)

val run :
  ?feeds:(Builder.output * Tensor.t) list ->
  ?targets:Builder.output list ->
  ?deadline:float ->
  t ->
  Builder.output list ->
  Tensor.t list
(** [run session fetches] executes one step and returns the fetched
    tensors in order. [targets] are executed for their effects only.

    [deadline] (seconds) bounds the whole step: when it expires the
    step's cancellation token fires, parked [Recv]/queue waiters wake,
    and the step raises [Run_error] with a [Deadline_exceeded] cause
    instead of hanging — even on cyclic (while-loop) graphs and even
    when a peer partition's [Send] was lost.

    @raise Run_error if a kernel fails, the deadline expires, a fetch is
    dead, or a fetch yields a reference handle rather than a tensor. *)

val run_unit :
  ?feeds:(Builder.output * Tensor.t) list ->
  ?deadline:float ->
  t ->
  Builder.output list ->
  unit
(** Run for effect: [run_unit s targets] = ignore a fetch-less step. *)

type handle
(** An in-flight pipelined step issued by {!run_async}. *)

val run_async : ?options:Run_options.t -> t -> Builder.output list -> handle
(** Admit one step into the pipeline and return immediately. Blocks
    only while [max_in_flight] steps are already executing (admission
    backpressure; the blocked time feeds the
    [octf_pipeline_stall_seconds] counter, and the
    [octf_steps_in_flight] gauge tracks admissions). When K > 1 the
    step's [Read] kernels see a snapshot of every variable taken at
    admission; its updates land on live variables when its kernels run
    — completion-order (async-SGD) consistency. The step's failure, if
    any, is delivered by {!wait}, never raised here. *)

val wait : handle -> Tensor.t list * Run_metadata.t
(** Block until the step finishes and return its fetches and metadata.
    May be called from any thread, any number of times.
    @raise Run_error if the step failed. *)

val drain : t -> unit
(** Block until no async step is in flight — the quiesce point before
    checkpoints and shutdown. Never raises: a drained step's failure
    stays stored in its handle for {!wait} to report. Steps admitted
    concurrently with the drain extend it. *)

val max_in_flight : t -> int
(** The session's pipeline depth K. *)

val cached_steps : t -> int
(** Number of distinct compiled steps in the session cache (tests). *)

val precompile :
  ?feeds:Builder.output list ->
  ?targets:Builder.output list ->
  t ->
  Builder.output list ->
  unit
(** Compile the step defined by [feeds]/[fetches]/[targets] into the
    step cache without executing it: the optimizer pipeline, placement,
    partitioning and the executor's memory plan all run now, so the
    first real request pays none of it. [feeds] names only the fed
    {e endpoints} (no values — none are needed to compile). The cache
    signature ignores tensor shapes, so one precompiled plan serves
    every batch size of the same endpoints. Idempotent.
    @raise Run_error as {!run} does, for compile-time failures. *)

val variable_values : t -> string -> Tensor.t option
(** [variable_values t] snapshots every variable reachable from this
    session's resource managers (copy-on-write, so O(1) per variable)
    and returns a name -> value lookup over the snapshot — the function
    a {!Graph_optimizer.Freeze} pass consumes to fold trained variables
    into constants. Uninitialized variables are absent. *)

val run_serve :
  t ->
  step_id:int ->
  feeds:(Node.endpoint * Tensor.t) list ->
  fetches:Node.endpoint list ->
  targets:int list ->
  cancel:Cancel.t ->
  unit ->
  ((Node.endpoint * Value.t) list, Step_failure.t) result
(** Execute one step on behalf of a remote chief ([Octf_net]'s
    Run_step handler): compile the step named by the endpoint lists
    (identical to the chief's — both processes built the same graph,
    so it hits the same step-cache entry), run {e only} the step's
    parts placed on this process's devices under the chief's
    [step_id], through the same runner as {!run}, and return the fetch
    endpoints they produced. Requires the session to have been created
    with [?remote]. Never raises: every failure — kernel error,
    cancellation via [cancel] (deadline or a Cancel_step frame), no
    part placed here — returns as a structured [Error]. *)
