(** The dataflow executor (§3.3–3.4, §5).

    Executes a pruned subgraph: schedules each operation's kernel once
    all of its inputs have arrived, propagates the special dead value
    from untaken [Switch] branches, and implements the timely-dataflow
    frame/iteration machinery behind [Enter]/[Exit]/[NextIteration] so
    conditionals and (nested) while loops run with one value per output
    per iteration.

    Scheduling notes:
    - where ready kernels run is delegated to {!Scheduler}: the
      [Inline] policy executes every kernel on the coordinating thread,
      while the [Pool] policy dispatches ready non-blocking kernels onto
      the shared {!Domain_pool} so independent branches of one step run
      on distinct cores; concurrent steps each run on their own thread,
      and the in-process partitions of one step share it, each
      coordinating loop a fiber that parks where it would wait (see
      {!Scheduler.run_parts} and {!Session});
    - potentially blocking kernels (queue operations) always stay on
      the coordinating thread and are scheduled only when no
      non-blocking work remains, which keeps worker domains from ever
      parking; such a kernel holds the step's thread, which is safe
      because every op on a queue is colocated with it (so no sibling
      partition holds the Enqueue it waits for); a ready [Recv] is
      armed once in the rendezvous and
      completed by its [Send] (see {!Rendezvous.arm}), which guarantees
      progress across partitions of an acyclic dataflow graph;
    - both policies produce bit-identical fetches: kernel results depend
      only on input values and the per-node RNG stream (derived from
      seed, step id, node id and iteration), never on dispatch order;
    - dead [NextIteration] results are discarded rather than propagated,
      terminating loops exactly as in TensorFlow's executor. *)

(** Failures surface as {!Step_failure.Error}: a structured record
    naming the failing node, its device and a typed cause (kernel
    failure, injected fault, deadline expiry, cancellation, peer
    abort). On a primary failure the executor aborts the step's
    rendezvous and cancels its token so peer partitions — including
    threads parked in queue waits or waiting for a [Recv] — fail as a
    unit instead of deadlocking. *)

type plan
(** A compiled subgraph: nodes numbered densely, with readiness
    counts, frame assignment, memory-planning statics and resolved
    kernels in arrays indexed by that number. There is one execution
    engine. Frames are an overlay on the dense plan: each (frame
    instance, iteration) pair gets its own arrays of values, arrival
    counts and reader counts, and a plan without control flow runs in
    exactly one such iteration. Sessions cache plans so that repeated
    steps pay no compilation cost (§3.3: "its subgraphs are cached in
    their respective devices"). A plan may be executed concurrently
    from several threads; all mutable per-step state is private to
    {!execute}. *)

val prepare :
  scheduler:Scheduler.policy ->
  memory_planning:bool ->
  graph:Graph.t ->
  nodes:int list ->
  fed_ids:int list ->
  plan
(** Compile the subgraph induced by [nodes]. [fed_ids] are the nodes
    whose outputs the client will feed (their inputs are not wired).
    [scheduler] sets the plan's policy; {!Session} resolves it.

    [memory_planning] switches the per-step lifetime analysis. When on,
    each step refcounts the consumers of every planner-owned output
    endpoint, drops stored values as their last reader finishes
    (recycling float buffers through {!Octf_tensor.Buffer_pool}), and
    grants declared May_alias kernels in-place writes into
    exclusively-owned input buffers. Fetched endpoints, fed values,
    variable state and values passing through retaining ops (Identity,
    reshapes, control flow, Assign, queues, Send) are never dropped
    early or aliased; fetches are bit-identical with planning on or
    off.

    @raise Step_failure.Error on malformed control flow (frame-crossing
    edges)
    @raise Invalid_argument if an executed node's input lies outside
    [nodes]. *)

val execute :
  plan ->
  feeds:(Node.endpoint * Value.t) list ->
  fetches:Node.endpoint list ->
  resources:Resource_manager.t ->
  ?rendezvous:Rendezvous.t ->
  ?tracer:Tracer.t ->
  ?cancel:Cancel.t ->
  ?seed:int ->
  ?step_id:int ->
  ?var_snapshot:(string -> Octf_tensor.Tensor.t option) ->
  sync:Scheduler.sync ->
  unit ->
  Value.t list
(** Execute one step of a prepared plan and return the value of each
    fetch, in order. Feeds are per endpoint: a fed node is not executed,
    and each of its outputs holds the value fed to that endpoint. Every
    node in the plan's [fed_ids] needs at least one fed output, and an
    output left unfed must be neither consumed nor fetched. Random
    operations draw from a stream derived from [seed], [step_id], the
    node id and the loop iteration, so a step is reproducible. [cancel]
    is the step's cancellation token, shared by every partition:
    deadline expiry or explicit cancellation makes the step raise a
    structured error instead of hanging. [var_snapshot] (from the
    pipelined session's admission control) redirects [Read] kernels to
    the variable values captured when the step was admitted; updates
    still land on live variables. The call is one part of a step run
    by {!Scheduler.run_parts} on [sync], and parks its fiber where it
    would wait.

    @raise Step_failure.Error on kernel failure, deadline expiry, a
    missing or partial feed, or an unproduced fetch *)
