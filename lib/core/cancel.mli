(** Cooperative cancellation tokens with deadlines (§4.2 of the
    preliminary white paper: the lightweight failure-detection path).

    One token is shared by every partition of a step. Cancellation is
    cooperative: compute loops poll ({!check}) between kernels, and
    blocking primitives (the executor's wait for kernels and armed
    Recvs, queue waits) register a {e waker} so that {!cancel} — or
    deadline expiry — broadcasts their condition variable and the woken
    waiter observes the cancelled state.
    A token with a deadline registers its expiry with the process's one
    {!Timer} thread, which fires those wakers if every thread of the
    step is parked when the deadline passes; polling callers detect
    expiry synchronously. *)

type t

val create : ?parent:t -> ?deadline:float -> unit -> t
(** [create ~deadline:budget ()] cancels itself [budget] seconds from
    now with cause {!Step_failure.Deadline_exceeded}. Without
    [?deadline] the token only cancels explicitly. Neither starts a
    thread.

    [?parent] links the new token under a longer-lived one: when the
    parent fires (explicitly or by its own deadline), the child fires
    with the parent's cause — this is how a pipeline's group token
    tears down every in-flight step. The link is removed by
    {!complete}, so a group token supervising thousands of steps does
    not accumulate dead wakers. *)

val cancel : t -> reason:string -> unit
(** Cancel with cause {!Step_failure.Cancelled}. First cancellation
    wins; later calls (and a later deadline) are no-ops. Runs all
    registered wakers. *)

val cancelled : t -> Step_failure.cause option
(** The cancellation cause, if any — checking the deadline
    synchronously, so callers never depend on timer latency. *)

val check : t -> unit
(** @raise Step_failure.Error when cancelled. *)

val check_opt : t option -> unit

val with_waker : t option -> (unit -> unit) -> (unit -> 'a) -> 'a
(** [with_waker cancel wake f] runs [f] with [wake] registered on
    [cancel] (no-op when [cancel] is [None]). [wake] runs on
    cancellation, without the token's lock held: on the cancelling
    thread, or on the timer thread when the deadline passes (a poller
    that detects expiry may hold the very lock its waker takes, so it
    never fires wakers itself). A waker registered after cancellation
    never runs: blocking waits must re-check {!cancelled} before
    parking. *)

val complete : t -> unit
(** Mark the run finished: drop the deadline's timer entry and unlink
    the token from its [?parent] (if any). *)
