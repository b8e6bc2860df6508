(** Periodic training-loop observability.

    A monitor samples the metrics registry every N steps, logs a
    one-line summary (and, when the caller passes the step's
    {!Octf.Session.Run_metadata.t}, the per-node step-stats summary),
    and can dump a full registry snapshot to a file in Prometheus text
    or JSON format — the programmatic face of the CLI's [--metrics] and
    [--stats-every] flags. *)

type t

val create :
  ?registry:Octf.Metrics.t ->
  ?every:int ->
  ?log:(string -> unit) ->
  unit ->
  t
(** [every] (default 10, clamped to >= 1) is the sampling period in
    steps; [log] (default: stderr) receives the summary lines. *)

val every : t -> int

val should_sample : t -> step:int -> bool
(** True on the last step of each period ([(step + 1) mod every = 0],
    with 0-based steps). *)

val on_step :
  t -> step:int -> ?metadata:Octf.Session.Run_metadata.t -> unit -> unit
(** Call after each training step. On sampling steps, logs the metrics
    summary, plus the {!Octf.Step_stats} summary when [metadata]
    carries one. *)

val write_snapshot : ?format:[ `Prometheus | `Json ] -> t -> path:string -> unit
(** Dump the registry (default: Prometheus text) to [path] atomically. *)
