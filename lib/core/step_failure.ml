type cause =
  | Deadline_exceeded of float
  | Cancelled of string
  | Kernel_failed of string
  | Fault_injected of string
  | Rendezvous_aborted of string
  | Duplicate_send of string
  | Missing_task of string
  | Invalid_graph of string
  | Fetch_failed of string
  | Network_error of string
  | Overloaded of string

type t = { node : string option; device : string option; cause : cause }

exception Error of t

let v ?node ?device cause = { node; device; cause }

let error ?node ?device cause = Error (v ?node ?device cause)

let cause_message = function
  | Deadline_exceeded budget ->
      Printf.sprintf "deadline of %.0f ms exceeded" (1000.0 *. budget)
  | Cancelled reason -> "step cancelled: " ^ reason
  | Kernel_failed detail -> "kernel failed: " ^ detail
  | Fault_injected detail -> "fault injected: " ^ detail
  | Rendezvous_aborted reason -> "rendezvous aborted: " ^ reason
  | Duplicate_send key -> "duplicate rendezvous send for key " ^ key
  | Missing_task detail -> "missing cluster task: " ^ detail
  | Invalid_graph detail -> detail
  | Fetch_failed detail -> detail
  | Network_error detail -> "network error: " ^ detail
  | Overloaded detail -> "overloaded: " ^ detail

let cause_kind = function
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Cancelled _ -> "cancelled"
  | Kernel_failed _ -> "kernel_failed"
  | Fault_injected _ -> "fault_injected"
  | Rendezvous_aborted _ -> "rendezvous_aborted"
  | Duplicate_send _ -> "duplicate_send"
  | Missing_task _ -> "missing_task"
  | Invalid_graph _ -> "invalid_graph"
  | Fetch_failed _ -> "fetch_failed"
  | Network_error _ -> "network_error"
  | Overloaded _ -> "overloaded"

let is_cancellation = function
  | Deadline_exceeded _ | Cancelled _ -> true
  | Kernel_failed _ | Fault_injected _ | Rendezvous_aborted _
  | Duplicate_send _ | Missing_task _ | Invalid_graph _ | Fetch_failed _
  | Network_error _ | Overloaded _ ->
      false

let cause_payload = function
  | Deadline_exceeded budget -> Printf.sprintf "%h" budget
  | Cancelled s | Kernel_failed s | Fault_injected s | Rendezvous_aborted s
  | Duplicate_send s | Missing_task s | Invalid_graph s | Fetch_failed s
  | Network_error s | Overloaded s ->
      s

(* Rebuild a cause from its wire form (kind string + payload), for
   failures reported by a remote process. Unknown kinds degrade to
   [Kernel_failed] so a newer peer never crashes an older one. *)
let cause_of_wire ~kind ~payload:message =
  match kind with
  | "deadline_exceeded" ->
      Deadline_exceeded (Option.value (float_of_string_opt message) ~default:0.0)
  | "cancelled" -> Cancelled message
  | "kernel_failed" -> Kernel_failed message
  | "fault_injected" -> Fault_injected message
  | "rendezvous_aborted" -> Rendezvous_aborted message
  | "duplicate_send" -> Duplicate_send message
  | "missing_task" -> Missing_task message
  | "invalid_graph" -> Invalid_graph message
  | "fetch_failed" -> Fetch_failed message
  | "network_error" -> Network_error message
  | "overloaded" -> Overloaded message
  | other -> Kernel_failed (Printf.sprintf "remote %s: %s" other message)

(* Failures that only describe another partition's (or the whole step's)
   demise, not its origin. Used to pick the root cause among the errors
   collected from the partitions of one step. *)
let is_secondary = function
  | Rendezvous_aborted _ | Cancelled _ -> true
  | _ -> false

let to_string f =
  let where =
    match (f.node, f.device) with
    | Some n, Some d -> Printf.sprintf " at node %s on %s" n d
    | Some n, None -> Printf.sprintf " at node %s" n
    | None, Some d -> Printf.sprintf " on %s" d
    | None, None -> ""
  in
  Printf.sprintf "step failed%s: %s" where (cause_message f.cause)

let () =
  Printexc.register_printer (function
    | Error f -> Some (to_string f)
    | _ -> None)
