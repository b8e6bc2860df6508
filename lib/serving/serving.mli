(** Inference serving: graph freeze + dynamic request micro-batching.

    The north-star deployment (ROADMAP item 2, and TensorFlow Serving
    in the 2015 whitepaper): a trained model is {e frozen} — variables
    folded into constants, the graph pruned to the inference subgraph,
    the step pre-compiled — and a server multiplexes many concurrent
    single-example requests onto it by coalescing them into batched
    steps along a leading batch axis.

    {2 Freeze}

    {!freeze} copies the graph ({!Octf.Graph.copy}, so the training
    graph is untouched), runs the
    {!Octf.Graph_optimizer.Freeze} pass with a variable-name -> tensor
    lookup (a live session's {!Octf.Session.variable_values} or a
    {!Octf.Checkpoint_format} file), then constant-folds, merges,
    fuses elementwise chains and prunes. The resulting session's step cache holds one pre-compiled
    read-only plan — the cache signature ignores tensor shapes, so the
    same plan serves every batch size. Freezing fails loudly if any
    stateful operation survives in the inference subgraph.

    {2 Batching}

    {!submit} admits one single-example request (one tensor per model
    input, {e without} the batch dimension). A background batcher
    coalesces admitted requests: a batch is dispatched as one
    [Session.run] the moment it reaches [max_batch_size] (the filling
    submit wakes the batcher), or when its oldest member has waited
    [max_queue_delay] (an {!Octf.Timer} entry wakes it). The batcher
    waits on one condition variable and never polls. Each batched step
    runs
    under the longest remaining per-request budget via the session's
    {!Octf.Cancel} token (a child of the server's group token, so
    {!shutdown} cancels mid-flight steps); members whose own deadline
    passed are answered [Deadline_exceeded] — before dispatch if they
    expired in the queue, after it if they expired mid-batch.

    {2 Overload}

    When the admission queue holds [queue_capacity] requests, further
    {!submit}s are shed with a structured {!Octf.Step_failure.Overloaded}
    rejection — clients back off instead of growing an unbounded queue.

    Every server exports [octf_serving_*] metrics labeled with its
    [name]: requests/served/rejected/failed counters, queue-depth
    gauge, batch-size and latency histograms, batches counter. *)

open Octf_tensor

(** {1 Freezing} *)

val freeze :
  ?config:Octf.Session.Config.t ->
  ?quantize:bool ->
  ?ranges:(string -> (float * float) option) ->
  values:(string -> Tensor.t option) ->
  inputs:Octf.Builder.output list ->
  outputs:Octf.Builder.output list ->
  Octf.Graph.t ->
  Octf.Session.t
(** [freeze ~values ~inputs ~outputs graph] builds a read-only
    inference session over a frozen copy of [graph]. [values] resolves
    a variable name to its trained tensor; [inputs] are the request
    placeholders, [outputs] the served fetches. [config]'s [passes]
    field is overridden by the freeze pipeline.

    With [~quantize:true] (resolution: explicit argument, then
    [config]'s [quantize] field, default off) the pipeline then runs
    the {!Octf.Graph_optimizer.Quantize} pass:
    eligible MatMul/Conv2D islands run on int8 codes with 4x-smaller
    weight constants. [ranges] is the calibrated activation-range
    lookup (see {!Octf.Quant_calibration.ranges}); omitted, islands
    quantize their inputs dynamically per batch. When [config]'s
    [fusion] resolves true (default on) the pipeline
    ends with {!Octf.Graph_optimizer.Fuse}, after the int8 pass, so
    elementwise chains the islands did not absorb run as
    [FusedElementwise] kernels.
    @raise Octf.Step_failure.Error ([Invalid_graph]) if stateful
    operations survive in the pruned inference subgraph (an
    unresolvable variable, or state the model really depends on). *)

val freeze_session :
  ?config:Octf.Session.Config.t ->
  ?quantize:bool ->
  ?ranges:(string -> (float * float) option) ->
  inputs:Octf.Builder.output list ->
  outputs:Octf.Builder.output list ->
  Octf.Session.t ->
  Octf.Session.t
(** Freeze from a live session's current variable values
    ({!Octf.Session.variable_values}). *)

val freeze_checkpoint :
  ?config:Octf.Session.Config.t ->
  ?quantize:bool ->
  ?ranges:(string -> (float * float) option) ->
  path:string ->
  inputs:Octf.Builder.output list ->
  outputs:Octf.Builder.output list ->
  Octf.Graph.t ->
  Octf.Session.t
(** Freeze from a checkpoint file written by [Octf_train.Saver].
    @raise Octf.Checkpoint_format.Corrupt on unreadable files. *)

val inference_node_count :
  Octf.Session.t ->
  inputs:Octf.Builder.output list ->
  outputs:Octf.Builder.output list ->
  int
(** Size of the pruned inference subgraph in [session]'s graph —
    reporting hook for the [serve] CLI ("frozen 42 of 180 nodes"). *)

(** {1 Serving} *)

type t
(** A server: one frozen (or plain) session plus the admission queue
    and its batcher thread. *)

type request
(** An admitted in-flight request; redeem with {!await}. *)

type stats = {
  submitted : int;  (** admission attempts, including rejected *)
  served : int;  (** answered with tensors *)
  rejected : int;  (** shed at admission (overload, shutdown, shape) *)
  failed : int;  (** admitted but failed (deadline, step failure) *)
  batches : int;  (** batched steps dispatched *)
  max_batch : int;  (** largest batch dispatched *)
  queue_depth : int;  (** requests waiting right now *)
}

val create :
  ?name:string ->
  ?max_batch_size:int ->
  ?max_queue_delay:float ->
  ?queue_capacity:int ->
  ?default_deadline:float ->
  session:Octf.Session.t ->
  inputs:Octf.Builder.output list ->
  outputs:Octf.Builder.output list ->
  unit ->
  t
(** Start a server over [session] (typically from {!freeze}) serving
    [outputs] from per-example [inputs]. [name] labels the
    [octf_serving_*] metrics (default ["default"]). [max_batch_size]
    (default 8) and [max_queue_delay] (seconds, default 2ms) bound the
    coalescing window; [max_batch_size:1] disables batching.
    [queue_capacity] (default 64) is the admission high-watermark.
    [default_deadline] (seconds, relative) applies to requests that
    pass none. The serving step is pre-compiled here, before any
    traffic.
    @raise Invalid_argument on non-positive sizes or empty
    input/output lists. *)

val submit :
  ?deadline:float -> t -> Tensor.t list -> (request, Octf.Step_failure.t) result
(** Admit one request: one tensor per model input, each {e without}
    the batch dimension (a [12x12x1] image for a [Nx12x12x1]
    placeholder). [deadline] is relative seconds from now. Returns
    [Error] without executing anything when the request is shed:
    [Overloaded] at the queue high-watermark, [Invalid_graph] for an
    arity/dtype/shape mismatch with the served signature (fixed by the
    first admitted request), [Cancelled] after {!shutdown}. *)

val await : request -> (Tensor.t list, Octf.Step_failure.t) result
(** Block until the request's batch ran (or it was shed). [Error]
    causes: [Deadline_exceeded] (in queue or mid-batch), [Cancelled]
    (shutdown), or whatever the batched step failed with. Never
    raises; may be called from any thread, repeatedly. *)

val infer :
  ?deadline:float ->
  t ->
  Tensor.t list ->
  (Tensor.t list, Octf.Step_failure.t) result
(** [submit] + [await]. *)

val shutdown : t -> unit
(** Stop admitting, end an open batching window at once, cancel the
    in-flight batched step through the group token, fail every queued
    request with [Cancelled], and join the batcher. Idempotent. *)

val stats : t -> stats

val session : t -> Octf.Session.t
