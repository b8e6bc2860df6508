(** A process-wide pool of OCaml 5 domains for kernel execution.

    The parallel scheduler (see {!Scheduler}) dispatches ready,
    non-blocking kernels onto this pool so independent branches of a
    dataflow graph run on distinct cores — the inter-op parallelism the
    paper's executor gets from each device's threadpool (§3.3, §5).

    One pool is shared by every session, partition and concurrent step in
    the process: worker domains are a hardware resource, not a per-step
    one, and OCaml 5 performs best with at most one domain per core. The
    pool is created lazily on first {!submit}, sized from
    [Domain.recommended_domain_count () - 1] (the coordinating thread
    keeps one core busy), clamped to at least one worker, and shut down
    via [at_exit].

    Tasks must not block indefinitely: a worker that parks on a queue or
    rendezvous would steal a core from every other step in the process
    (blocking kernels stay on the coordinating thread — see the
    scheduling notes in {!Scheduler}). Tasks must also not raise;
    submitters are expected to capture failures and deliver them through
    their own completion channel.

    Loading this module also installs {!submit} as the execution backend
    of {!Octf_tensor.Parallel}, so intra-op kernel shards run on the same
    pool as inter-op node dispatch (one process-wide set of worker
    domains, as with TensorFlow's shared Eigen threadpool). Intra-op
    helper shards never block — the sharder is caller-runs — so they are
    safe to interleave with node tasks. *)

val env : int Octf_tensor.Env.t
(** [OCTF_POOL_SIZE], an integer >= 1: the worker-domain count. *)

val size : unit -> int
(** Number of worker domains the pool runs (without forcing creation):
    [OCTF_POOL_SIZE], else the default above. *)

val submit : (unit -> unit) -> unit
(** Enqueue a task; some worker domain runs it exactly once, FIFO.
    Creates the pool on first use. Exceptions escaping the task are
    swallowed (a warning is printed on stderr) — deliver errors through
    the task's own completion channel instead. *)
