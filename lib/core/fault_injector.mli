(** Deterministic fault injection for the distributed runtime (§4.3).

    The paper designs the runtime around failure — "the client, master,
    or any worker process" may die — but a reproduction can only claim
    fault tolerance if it can {e cause} those failures on demand. This
    module is the chaos layer: a process-wide, seeded injector that can
    kill a cluster task at a step, fail a chosen kernel invocation, make
    kernels flaky with a seeded coin, or drop/delay a rendezvous channel.
    The executor consults {!straggle} and {!kernel_hook} before every
    kernel and the [Send] kernel consults {!send_hook}, so injected
    faults travel the exact production failure paths (structured
    {!Step_failure} errors, rendezvous abort, cancellation) that real
    failures would.

    Specs come from code ({!install}), the [OCTF_FAULT] environment
    variable, or the CLI's [--fault] flag. Spec grammar, comma-separable:
    - [kill:<job>/<task>@<step>] — task dies at that step and stays dead
      until {!revive_task};
    - [kernel:<pattern>@<step>] — fail the first kernel whose node name
      or op type contains [pattern] at/after that step (one-shot);
    - [flaky:<pattern>:<prob>] — matching kernels fail with seeded
      probability (deterministic per seed/step/node);
    - [drop:<pattern>@<step>] — swallow the first matching rendezvous
      send (the paired Recv must be rescued by a deadline);
    - [delay:<pattern>@<step>:<ms>] — delay the matching send;
    - [slow:<pattern>@<step>:<ms>] — persistent straggler: {e every}
      matching kernel at/after the step waits [ms] before running (a
      slow reader or slow disk, for pipelining experiments);
    - [dropconn:<peer>@<step>] — sever the TCP connection to the peer
      whose ["job/task"] name contains [peer], the next time a frame is
      sent at/after the step (one-shot; consulted via {!net_hook});
    - [framedelay:<pattern>@<step>:<ms>] — hold the first matching
      outbound frame for [ms] before writing it (one-shot);
    - [corrupt:<pattern>@<step>] — flip a payload bit in the first
      matching outbound frame {e after} its checksum was computed, so
      the receiving end reports a checksum mismatch (one-shot). *)

exception Injected of string
(** Raised by {!kernel_hook}; the executor reports it as
    {!Step_failure.Fault_injected} with node and device context. *)

type spec =
  | Kill_task of { job : string; task : int; step : int }
  | Fail_kernel of { pattern : string; step : int }
  | Flaky_kernel of { pattern : string; prob : float }
  | Drop_send of { pattern : string; step : int }
  | Delay_send of { pattern : string; step : int; ms : float }
  | Slow_kernel of { pattern : string; step : int; ms : float }
  | Drop_conn of { peer : string; step : int }
  | Delay_frame of { pattern : string; step : int; ms : float }
  | Corrupt_frame of { pattern : string; step : int }

type send_action = [ `Deliver | `Drop | `Delay of float ]

type net_action = [ `Send | `Drop_conn | `Delay of float | `Corrupt ]

val parse_spec : string -> (spec, string) result

val parse : string -> (spec list, string) result
(** Comma-separated list of specs. *)

val spec_to_string : spec -> string

val install : ?seed:int -> spec list -> unit
(** Replace the active spec set (clearing killed tasks and counters).
    [seed] drives the flaky-kernel coin. *)

val env : spec list Octf_tensor.Env.t
(** [OCTF_FAULT], read with {!parse}. *)

val seed_env : int Octf_tensor.Env.t
(** [OCTF_FAULT_SEED], an integer: the flaky-kernel seed. *)

val install_from_env : unit -> unit
(** Install from [OCTF_FAULT] / [OCTF_FAULT_SEED] when set.
    @raise Invalid_argument on a malformed value. *)

val reset : unit -> unit
(** Disarm everything (specs and killed tasks). Tests must call this in
    a [Fun.protect] finally. *)

val active : unit -> bool

val injections : unit -> int
(** Faults fired since the last {!install}/{!reset} (determinism
    smoke-tests compare this across seeded runs). *)

val kill_task : job:string -> task:int -> unit
(** Programmatic task kill, effective immediately: every kernel placed
    on that task's devices fails until {!revive_task}. *)

val revive_task : job:string -> task:int -> unit

val task_alive : job:string -> task:int -> bool

val killed_tasks : unit -> (string * int) list

val kernel_hook : Node.t -> step_id:int -> unit
(** Called by the executor before running a kernel.
    @raise Injected when a spec fires for this node/step. *)

val straggle : Node.t -> step_id:int -> float
(** Called by the executor on the step's coordinating thread before a
    kernel is dispatched: the seconds the {!Slow_kernel} specs that
    match the node at this step make it wait, 0 when none does. The
    executor parks the node's part that long ({!Scheduler.pause}): the
    straggle delays that part the way a slow reader's I/O does, while
    the step's other parts, and other steps, keep running. *)

val send_hook : key:string -> step_id:int -> send_action
(** Called by the [Send] kernel before publishing to the rendezvous. *)

val net_hook :
  peer:string -> kind:string -> key:string -> step_id:int -> net_action
(** Called by the network transport just before writing a frame. [peer]
    is the destination's ["job/task"]; [kind] is the frame-type name
    (["tensor"], ["run_step"], ...); [key] identifies the payload (the
    rendezvous key for tensor frames, else the kind); [step_id] is the
    frame's stream id. {!Drop_conn} matches against [peer];
    {!Delay_frame} and {!Corrupt_frame} match against [key] or
    [kind]. *)
