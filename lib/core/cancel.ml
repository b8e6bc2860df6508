type t = {
  state : Step_failure.cause option Atomic.t;
      (* written once, under [mutex]; read without it *)
  deadline : (float * float) option;
      (* absolute (Unix.gettimeofday clock), and the seconds allotted
         for the error message *)
  mutable wakers : (int * (unit -> unit)) list;
  mutable next_id : int;
  mutable expiry : Timer.t option;  (* the deadline's timer entry *)
  mutable parent_link : (t * int) option;  (* parent token, our waker id *)
  mutex : Mutex.t;
}

(* Set the cause and collect the wakers under the lock; never run them
   while holding it. Wakers take other locks (a queue's or the
   rendezvous' mutex, to broadcast their condition), so running them
   under ours would invert the order against threads that call {!check}
   from inside those critical sections. *)
let m_fired kind =
  Metrics.Counter.v ~help:"Cancellation tokens fired, by cause kind"
    ~labels:[ ("kind", kind) ]
    "octf_cancel_fired_total"

let set_cause t cause =
  Mutex.lock t.mutex;
  let first = Atomic.compare_and_set t.state None (Some cause) in
  let wakers = if first then List.map snd t.wakers else [] in
  Mutex.unlock t.mutex;
  (* Count after unlocking: the metric mutex must stay a leaf, and the
     caller may already hold a queue/rendezvous mutex. *)
  if first then
    Metrics.Counter.incr (m_fired (Step_failure.cause_kind cause));
  wakers

let fire wakers = List.iter (fun f -> f ()) wakers

let cancel_with t cause = fire (set_cause t cause)

(* The deadline's timer callback wakes threads parked in condition
   waits (which have no timeout in the stdlib); polling callers observe
   the deadline synchronously through {!cancelled}. It fires the wakers
   even when a poller set the cause first: the poller may hold the very
   queue/rendezvous mutex its own waker relocks ({!check} runs inside
   those critical sections), so it only sets the cause and leaves the
   waking to the timer thread. Firing is an idempotent broadcast. *)
let expire t budget =
  ignore (set_cause t (Step_failure.Deadline_exceeded budget));
  Mutex.lock t.mutex;
  let wakers = List.map snd t.wakers in
  Mutex.unlock t.mutex;
  fire wakers

let cancel t ~reason = cancel_with t (Step_failure.Cancelled reason)

(* The executor polls this before every kernel: one atomic read, and a
   clock read when the token has a deadline. *)
let cancelled t =
  match Atomic.get t.state with
  | Some _ as state -> state
  | None -> (
      (* Synchronous deadline detection, independent of the timer. The
         caller may be polling from inside a queue's or the rendezvous'
         critical section, with its own waker registered — firing
         wakers here would relock the mutex this thread already holds.
         Set the cause only; the expiry callback fires the wakers. *)
      match t.deadline with
      | Some (d, budget) when Unix.gettimeofday () >= d ->
          ignore (set_cause t (Step_failure.Deadline_exceeded budget));
          Atomic.get t.state
      | _ -> None)

let check t =
  match cancelled t with
  | Some cause -> raise (Step_failure.error cause)
  | None -> ()

let add_waker t f =
  Mutex.lock t.mutex;
  let id = t.next_id in
  t.next_id <- id + 1;
  t.wakers <- (id, f) :: t.wakers;
  Mutex.unlock t.mutex;
  id

let remove_waker t id =
  Mutex.lock t.mutex;
  t.wakers <- List.filter (fun (i, _) -> i <> id) t.wakers;
  Mutex.unlock t.mutex

(* Link a child token to its parent: when the parent fires, the child
   fires with the parent's cause, so a filler step cancelled by its
   group token reports the group's reason and a parent deadline
   surfaces as a deadline. The waker id is kept so {!complete} unlinks
   the child — a long-lived group token must not accumulate one dead
   waker per step it supervised. *)
let link_parent child parent =
  let propagate () =
    match Atomic.get parent.state with
    | Some cause -> cancel_with child cause
    | None -> ()
  in
  let id = add_waker parent propagate in
  child.parent_link <- Some (parent, id);
  (* The parent may have fired before our waker registered. *)
  propagate ()

let create ?parent ?deadline () =
  let t =
    {
      state = Atomic.make None;
      deadline = Option.map (fun b -> (Unix.gettimeofday () +. b, b)) deadline;
      wakers = [];
      next_id = 0;
      expiry = None;
      parent_link = None;
      mutex = Mutex.create ();
    }
  in
  Option.iter
    (fun (d, budget) -> t.expiry <- Some (Timer.at d (fun () -> expire t budget)))
    t.deadline;
  Option.iter (link_parent t) parent;
  t

let with_waker cancel wake f =
  match cancel with
  | None -> f ()
  | Some c ->
      let id = add_waker c wake in
      Fun.protect ~finally:(fun () -> remove_waker c id) f

let complete t =
  Mutex.lock t.mutex;
  let expiry = t.expiry and link = t.parent_link in
  t.expiry <- None;
  t.parent_link <- None;
  Mutex.unlock t.mutex;
  Option.iter Timer.cancel expiry;
  match link with
  | Some (parent, id) -> remove_waker parent id
  | None -> ()

let check_opt = function None -> () | Some t -> check t
