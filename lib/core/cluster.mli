(** In-process clusters: jobs, tasks and their devices (§3.3).

    A cluster names a set of tasks grouped into jobs (conventionally
    "ps" for parameter-server tasks and "worker" for workers). Each task
    owns its devices and its resource manager, so variables placed on
    ["/job:ps/task:0"] live in that task's state exactly as in a real
    deployment; partitioned steps run one executor thread per device,
    standing in for the per-task dataflow executors of §5, and
    communicate through the shared in-process rendezvous (DESIGN.md,
    substitution 2).

    The paper relies on Chubby/ZooKeeper only to map task ids to
    addresses; here the equivalent name service is the lookup tables in
    this module. *)

type t

val create : jobs:(string * int * Device.device_type list) list -> t
(** [create ~jobs] where each job is (name, task count, device types per
    task). E.g. [("ps", 2, [CPU]); ("worker", 3, [CPU; GPU])]. *)

val devices : t -> Device.t list

val task_names : t -> string list
(** ["/job:ps/task:0"]-style names, the name-service view. *)

val resources_of : t -> Device.t -> Resource_manager.t
(** The resource manager of the task owning the device.
    @raise Step_failure.Error with a [Missing_task] cause naming the
    requested [/job:<j>/task:<i>] and the known tasks, for devices
    outside the cluster. *)

val task_resources : t -> job:string -> task:int -> Resource_manager.t
(** @raise Step_failure.Error ([Missing_task]) for unknown tasks. *)

val restart_task : t -> job:string -> task:int -> unit
(** Simulate a task process restart: drop every variable and queue the
    task held, as a real restarted worker loses its memory. Callers
    re-create state by re-running init ops and restoring the latest
    checkpoint (§4.3) — see {!Octf_train.Supervisor}.
    @raise Step_failure.Error ([Missing_task]) for unknown tasks. *)

val session : ?config:Session.Config.t -> t -> Graph.t -> Session.t
(** A master session executing over every device in the cluster: a
    {!Session.create} whose [devices] and [resource_router] come from
    the cluster and whose remaining knobs come from [config] (the
    [devices]/[resource_router] fields of [config] are ignored). With
    [Config.v ~scheduler:Scheduler.Pool ()] every partition dispatches
    its ready kernels onto the one shared domain pool, so a multi-task
    step uses all cores instead of time-slicing partition threads on
    one. *)
