(** Step tracing — the distributed profiler of §5.

    "a distributed profiler that traces the execution of a computation
    across multiple devices and tasks."

    A tracer collects one event per kernel invocation (operation name,
    type, device, wall-clock start and duration, step id) from every
    partition executor participating in a step, and renders them as a
    summary or as Chrome-trace JSON (load in chrome://tracing or
    Perfetto; one row per device). Obtain one populated from a real step
    with {!Session.run_with_metadata} and [Run_options.v ~trace:true ()]. *)

type event = {
  name : string;
  op_type : string;
  device : string;
  lane : int;
      (** Execution lane: the id of the OCaml domain that ran the
          kernel. [0] is the coordinating (main) domain; worker domains
          of the {!Domain_pool} report their own ids, so a pool-scheduled
          step shows one lane per worker. *)
  start : float;  (** seconds, [Unix.gettimeofday] clock *)
  duration : float;
  step_id : int;
  bytes : int;
      (** Payload bytes attributable to the kernel: the size of the
          tensor received for a [Recv], 0 for most compute kernels. *)
  shards : int;
      (** Intra-op shards dispatched while the kernel ran on this domain
          ({!Octf_tensor.Parallel}); [0] for kernels that ran their loops
          serially. *)
  peak_bytes : int;
      (** Live planner-tracked tensor bytes observed when the kernel
          finished (its own outputs included) — the per-node memory
          high-watermark view used by the memory planner; [0] when the
          executor does not track memory for the step. *)
  fused : int;
      (** Number of original graph nodes this kernel stands in for: a
          [FusedElementwise] kernel minted by {!Graph_optimizer}'s fuse
          pass reports the size of its fusion group (from the node's
          ["fused_nodes"] attribute); [0] for ordinary kernels. *)
}

type t

val create : unit -> t

val record : t -> event -> unit
(** Called by the executors, from the coordinating thread and — under
    the pool scheduler — from worker domains concurrently; the event
    list is guarded by the tracer's mutex. *)

val lanes : t -> (string * int) list
(** Distinct (device, lane) pairs observed, sorted. *)

val events : t -> event list
(** In recording order. *)

val by_op_type : t -> (string * int * float) list
(** Per op type: (type, invocations, total seconds), slowest first. *)

val total_time : t -> float
(** Sum of kernel durations across all devices. *)

val total_bytes : t -> int
(** Sum of per-event payload bytes. *)

val lane_utilization : t -> (string * int * float * float) list
(** Per (device, lane): (device, lane, busy seconds, utilization), where
    utilization is busy time divided by the trace's wall-clock span
    (first event start to last event end). Sorted by (device, lane). *)

val to_chrome_trace : t -> string
(** Chrome trace-event JSON ("traceEvents" array of "X" events, one
    track per device {e and} execution lane). When the trace holds
    events from more than one step — a tracer shared across a pipelined
    session's in-flight steps — tracks are further split per step
    ([device/step:S/lane:L]), so inter-step overlap renders as parallel
    rows. *)

val pp_summary : Format.formatter -> t -> unit
