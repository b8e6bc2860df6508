(** Structured step errors (§4.2–4.3 of the preliminary white paper).

    Every way a step can die — kernel failure, injected fault, deadline
    expiry, cooperative cancellation, a peer partition aborting the
    shared rendezvous — is reported as one {!t}: the failing node and
    device (when known) plus a typed {!cause}. Policy layers (the
    {!Session} retry surface, the training supervisor) dispatch on the
    cause instead of parsing message strings; humans get
    {!to_string}. *)

type cause =
  | Deadline_exceeded of float  (** step budget, in seconds *)
  | Cancelled of string  (** cooperative cancellation, with reason *)
  | Kernel_failed of string
  | Fault_injected of string  (** a {!Fault_injector} fired *)
  | Rendezvous_aborted of string  (** a peer partition failed first *)
  | Duplicate_send of string  (** two sends of one rendezvous key *)
  | Missing_task of string  (** cluster lookup of an unknown task *)
  | Invalid_graph of string  (** malformed control flow, bad feeds *)
  | Fetch_failed of string  (** fetch dead / not produced *)
  | Network_error of string
      (** wire-protocol failure: connection lost or refused, heartbeat
          timeout, malformed frame, RPC timeout ({!Octf_net}) *)
  | Overloaded of string
      (** admission control shed the request: a serving queue passed its
          high-watermark ({!Octf_serving.Serving}). Clients should back
          off and retry; the request was never executed. *)

type t = { node : string option; device : string option; cause : cause }

exception Error of t

val v : ?node:string -> ?device:string -> cause -> t

val error : ?node:string -> ?device:string -> cause -> exn
(** [error cause] = [Error (v cause)], ready to raise. *)

val cause_message : cause -> string

val cause_kind : cause -> string
(** Stable snake_case discriminator of the cause constructor (e.g.
    ["deadline_exceeded"]), suitable as a metric label value. *)

val to_string : t -> string

val is_cancellation : cause -> bool
(** True for {!Deadline_exceeded} and {!Cancelled} — the retryable
    "step was abandoned" family, as opposed to graph or kernel bugs. *)

val is_secondary : cause -> bool
(** True for causes that describe the collateral of another failure
    ({!Rendezvous_aborted}, {!Cancelled}); when one step yields several
    errors the primary (non-secondary) one names the root cause. *)

val cause_payload : cause -> string
(** The cause's argument as text: the detail string, or the budget (an
    exact hexadecimal float) of a {!Deadline_exceeded}. *)

val cause_of_wire : kind:string -> payload:string -> cause
(** Rebuild a cause from its wire form — a {!cause_kind} string plus
    the {!cause_payload} — for failures reported by a remote process,
    so the rebuilt cause prints the same {!cause_message}. Unknown
    kinds degrade to {!Kernel_failed}. *)
