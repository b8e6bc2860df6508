(** Pluggable executor scheduling (§3.3, §5).

    The paper's executor "maps nodes onto the available compute
    resources": a node whose inputs have all arrived is dispatched onto
    the device's compute resources, and independent nodes run
    concurrently. This module owns that policy. The {!Executor} compiles
    graphs and applies node results; the scheduler decides {e where and
    in what order} ready kernels run:

    - {!Inline} — the original single-threaded loop: every kernel runs
      immediately on the coordinating thread, in FIFO readiness order.
      Zero dispatch overhead; one core per step, whose in-process parts
      take turns on it (see {!run_parts}).
    - {!Pool} — ready non-blocking kernels are dispatched onto the
      shared {!Domain_pool}, so independent branches of one step run on
      distinct cores (true intra-step inter-op parallelism). The
      dataflow bookkeeping stays on the coordinating thread; worker
      domains only run kernels.

    Blocking rule (progress guarantee): kernels that may block the
    calling thread — queue operations — are never offloaded. They run on
    the coordinating thread, and only when no other work is ready and
    no kernel is in flight, exactly as in the inline loop. Such a kernel
    blocks the whole step's thread, every part of it, not a fiber: it
    waits on the queue's own condition. That cannot stall the step on
    itself, because every op on a queue is colocated with the queue
    ({!Placement}), so the Enqueue that would fill a Dequeue is in the
    same part, never in a sibling part waiting for the thread; only
    another step or thread fills it. A [Recv] never blocks anything:
    when it becomes ready it is {e armed} in the rendezvous once, and
    its value is pushed to the coordinator through the same completion
    queue that carries pool kernels' results. A worker domain therefore
    never blocks, and every submitted task terminates.

    Determinism: a kernel's output depends only on its input values and
    its per-node RNG stream (derived from seed, step id, node id and
    iteration), never on dispatch order, so both policies produce
    bit-identical fetches. *)

type policy = Inline | Pool

val policy_of_string : string -> (policy, string) result
(** Recognizes ["inline"]/["serial"] and ["pool"]/["parallel"]. *)

val policy_to_string : policy -> string

val env : policy Octf_tensor.Env.t
(** [OCTF_SCHEDULER], read with {!policy_of_string}: the policy of a
    session whose config sets none (see {!Session.Config.of_env}). *)

(** {1 The dispatch engine}

    The executor describes its work items abstractly and the engine runs
    them to quiescence. A work item is staged on the coordinating
    thread; staging either completes it at once (dead-value propagation)
    or readies its kernel, which then runs — inline, or on a worker
    domain — and stores its result in the item; the engine applies that
    result back on the coordinating thread. The engine builds no closure
    and takes no lock per item on the inline path: posted completions
    sit in an atomic list. *)

type cls = Normal | Recv | Blocking

type 'task ops = {
  classify : 'task -> cls;
  stage : 'task -> bool;
      (** Coordinator-side preparation of a {!Normal} or {!Blocking}
          task: gather inputs, build the context. [false] when the task
          completed at once and has no kernel to run. *)
  run : 'task -> unit;
      (** Run a staged task's kernel, on the coordinating thread or a
          worker domain, and store its outputs or its failure in the
          task. Worker-safe (it touches only the task and mutex-protected
          shared objects); must not raise. *)
  finish : 'task -> unit;
      (** Apply a run task's result on the coordinating thread: complete
          it, or re-raise its failure. *)
  arm : 'task -> unit;
      (** Arm a {!Recv} task once, when it becomes ready. Its value (or
          failure) must be stored in the task and handed to
          {!received} exactly once, from any thread and possibly before
          [arm] returns. *)
  received : 'task -> unit;
      (** Apply an armed task's result on the coordinating thread, as
          [finish] does for a run one. *)
  cancel : Cancel.t option;
      (** When present, the drive loop polls it between tasks — so even
          a cyclic graph that never quiesces honours its deadline — and
          registers a waker on it, so cancellation wakes a coordinator
          parked on the completion queue. *)
}

type 'task t

(** {1 One thread per step}

    A step's in-process parts share one thread. Each part's drive loop
    runs as a fiber of {!run_parts} and gives the thread up only where
    it would otherwise wait: for a pool kernel, an armed [Recv], the
    step's token, or an injected straggle ({!pause}). A [Send] to
    another part of the step posts the [Recv]'s completion and its
    sender runs on; the runner resumes the receiver when the sender
    parks. *)

type sync
(** The one mutex and condition shared by every part of a step:
    completions from worker domains, remote senders' threads and the
    timer are posted under it, and the step's thread waits on it only
    when no parked part can go on. *)

val sync : unit -> sync

val run_parts : sync -> (unit -> unit) list -> unit
(** [run_parts s parts] runs every part to completion as a fiber of the
    calling thread. A part runs until it parks or returns; the runner
    then resumes the longest-parked part that can go on, and waits on
    [s]'s condition when none can (a pool kernel in flight, a [Send]
    from another thread, the timer). An exception a part raises is
    re-raised once every part has returned. A hung step shows here as a
    parked part whose wait never ends.

    A part must not park while it holds a mutex: the fibers of one
    thread share its ownership. *)

val create : sync -> policy -> 'task ops -> 'task t
(** A scheduler for one part of a step run by {!run_parts} on [sync]:
    its {!drive} parks the part's fiber where it would wait. *)

val pause : 'task t -> float -> unit
(** [pause t s] parks the calling part until a {!Timer} entry fires [s]
    seconds from now; the step's other parts run meanwhile. *)

val received : 'task t -> 'task -> unit
(** [received t task] posts an armed {!Recv} task's completion; callable
    from any thread. *)

val add : 'task t -> 'task -> unit
(** Make a task ready; a {!Recv} task is armed at once. Called from the
    coordinating thread only — at seeding time and while a result is
    applied. *)

val drive : 'task t -> unit
(** Run until no task is ready, no kernel is in flight, no armed [Recv]
    is outstanding and no blocking task is left. Re-raises the first
    failure a result carries, on the coordinating thread. A collateral
    failure — {!Rendezvous.Aborted}, or a {!Step_failure.is_secondary}
    cause such as the step's cancellation — is raised only once no
    kernel is in flight, and a primary failure among those kernels'
    results wins: the part reports its own root cause.

    @raise Rendezvous.Aborted if a peer partition fails while this one
    waits for a [Recv].
    @raise Step_failure.Error if the step's cancellation token fires
    (deadline expiry or explicit cancellation). *)
