(** Pluggable executor scheduling (§3.3, §5).

    The paper's executor "maps nodes onto the available compute
    resources": a node whose inputs have all arrived is dispatched onto
    the device's compute resources, and independent nodes run
    concurrently. This module owns that policy. The {!Executor} compiles
    graphs and applies node results; the scheduler decides {e where and
    in what order} ready kernels run:

    - {!Inline} — the original single-threaded loop: every kernel runs
      immediately on the coordinating thread, in FIFO readiness order.
      Zero dispatch overhead; one core per partition.
    - {!Pool} — ready non-blocking kernels are dispatched onto the
      shared {!Domain_pool}, so independent branches of one step run on
      distinct cores (true intra-step inter-op parallelism). The
      dataflow bookkeeping stays on the coordinating thread; worker
      domains only run kernels.

    Blocking-kernel rule (progress guarantee): kernels that may park the
    calling thread — [Recv], queue operations — are never offloaded.
    They run on the coordinating thread, and only when no non-blocking
    work remains, exactly as in the inline loop; [Recv] is polled
    non-blockingly so one pending value never wedges a partition whose
    other inputs have arrived. A worker domain therefore never blocks,
    and every submitted task terminates.

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
    thread; staging either completes it at once (dead-value propagation,
    fed nodes) or yields a kernel thunk that is safe to run on a worker
    domain. The thunk returns a completion continuation which the engine
    applies back on the coordinating thread — continuations mutate
    executor state and typically call {!add} with newly-ready items. *)

type staged =
  | Finish of (unit -> unit)
      (** No kernel to run; apply the continuation on the coordinator. *)
  | Offload of (unit -> unit -> unit)
      (** [run () = k] runs the kernel (worker-safe: it touches only
          immutable staged state and mutex-protected shared objects) and
          returns the continuation [k] to apply on the coordinator. It
          must not raise: capture failures and raise from [k] instead. *)

type cls = Normal | Recv | Blocking

type 'task ops = {
  classify : 'task -> cls;
  stage : 'task -> staged;
      (** Coordinator-side preparation of a {!Normal} task: gather
          inputs, resolve the kernel, build the context. *)
  run_blocking : 'task -> unit;
      (** Run a {!Blocking} (or rendezvous-less {!Recv}) task to
          completion on the coordinating thread, continuation included. *)
  poll_recv : 'task -> (unit -> unit) option;
      (** Try to complete a pending {!Recv} without blocking; [Some k]
          on success ([k] is applied immediately on the coordinator). *)
  rendezvous : Rendezvous.t option;
      (** When present, the engine parks on it (generation-watched) once
          only Recvs remain, waking when a peer partition sends. *)
  cancel : Cancel.t option;
      (** When present, both drive loops poll it between tasks — so even
          a cyclic graph that never quiesces honours its deadline — and
          pass it to rendezvous parks so cancellation wakes a parked
          coordinator. *)
}

type 'task t

val create : policy -> 'task ops -> 'task t

val add : 'task t -> 'task -> unit
(** Make a task ready. Called from the coordinating thread only — at
    seeding time and from completion continuations. *)

val drive : 'task t -> unit
(** Run until no task is ready, none is in flight, and no pending [Recv]
    can make progress. Re-raises the first continuation failure on the
    coordinating thread.

    @raise Rendezvous.Aborted if a peer partition fails while this one
    is parked on the rendezvous.
    @raise Step_failure.Error if the step's cancellation token fires
    (deadline expiry or explicit cancellation). *)
