(** The rendezvous: named channels between partitioned subgraphs (§3.3).

    When partitioning replaces a cross-device edge with a [Send]/[Recv]
    pair, the pair agrees on a {e rendezvous key} naming the value. [Send]
    publishes its input under the key as soon as the tensor is available;
    [Recv] completes when the value for its key is available locally.
    Keys are ["step:<id>;src_device;dst_device;tensor_name"] (see
    {!step_key}) and values are consumed once.

    Delivery is pushed, not polled: a receiver {!arm}s its key once with
    a continuation. If the value is already there the continuation runs
    at once; otherwise the sender runs it, handing over the value. The
    executor's continuation posts the Recv's completion to its step's
    scheduler, so a partition waiting on Recvs sleeps until one of its
    own values lands. *)

type t

exception Aborted of string
(** Raised by a [Recv] kernel whose armed receiver {!abort} failed. *)

val create : ?route:(key:string -> Value.t -> bool) -> unit -> t
(** [?route] is the out-of-process delivery hook (installed by
    [Octf_net] on its process-global rendezvous): {!send} consults it
    first, outside the rendezvous lock. Returning [true] means the value
    was consumed — its receiver lives in another OS process — and the
    local table is untouched. The hook may raise [Step_failure.Error]
    (e.g. {!Step_failure.Network_error}) to fail the sending kernel
    structurally when the peer is unreachable. *)

val node_suffix : Node.t -> string
(** The step-independent ["src;dst;name"] part of a [Send] or [Recv]
    node's key, read from its [send_device], [recv_device] and
    [tensor_name] attributes. Built once per plan node; each step then
    only calls {!key}. *)

val key : step_id:int -> string -> string
(** [key ~step_id suffix] is ["step:<id>;" ^ suffix]. The step id prefix
    gives per-step scoping: concurrent in-flight steps of a pipelined
    session can never cross-deliver even on a shared rendezvous. *)

val step_key :
  step_id:int ->
  send_device:string ->
  recv_device:string ->
  tensor_name:string ->
  string
(** The canonical ["step:<id>;src;dst;name"] key a [Send]/[Recv] pair
    agrees on. *)

val send : t -> key:string -> Value.t -> unit
(** Deliver [v]: to the receiver armed on [key] if there is one (its
    continuation runs on the calling thread, outside the rendezvous
    lock), else into the table until a receiver arms it.
    @raise Step_failure.Error with {!Step_failure.Duplicate_send} on a
    duplicate key (two sends of one value). *)

type outcome = (Value.t, string) result
(** What an armed receiver is handed: the value, or [Error reason] when
    the rendezvous was aborted. *)

val arm : t -> key:string -> (outcome -> unit) -> unit
(** Take-or-register, under the rendezvous lock: if [key]'s value was
    already sent, it is consumed and [k] runs at once on the calling
    thread; otherwise [k] is registered and runs exactly once, on the
    thread that sends the value, or with [Error] on the thread that
    {!abort}s a private rendezvous. After {!abort}, [k] runs at once
    with [Error]. A receiver removed by {!drop_step} never runs.
    @raise Invalid_argument if a receiver is already armed on [key]. *)

val abort : t -> reason:string -> unit
(** Fail every armed and future receiver with [reason]; used to
    propagate kernel failures across partition executor threads so a
    step fails as a unit rather than deadlocking.

    On a routed (process-global, shared across steps) rendezvous the
    abort is a no-op: it fails no armed receiver and is not recorded. A
    sticky abort would outlive the failing step and poison every later
    one; shared teardown is per step, via cancel tokens and
    {!drop_step}. *)

val pending_count : t -> int
(** Live (sent but unreceived) entry count. *)

val drop_step : t -> step_id:int -> int
(** Remove every entry whose key carries the ["step:<id>;"] prefix —
    values leaked by a cancelled or abandoned step, and receivers it
    armed but no longer waits for — and return how many were dropped.
    Invoked by [Session.drain] (and on step failure) so a long-lived
    shared rendezvous cannot accumulate dead tensors. *)
