type policy = Inline | Pool

let policy_of_string s =
  match String.lowercase_ascii s with
  | "inline" | "serial" -> Ok Inline
  | "pool" | "parallel" -> Ok Pool
  | _ ->
      Error
        (Printf.sprintf
           "unknown scheduler %S (expected inline | serial | pool | parallel)"
           s)

let policy_to_string = function Inline -> "inline" | Pool -> "pool"

let env = Octf_tensor.Env.v "OCTF_SCHEDULER" policy_of_string

type cls = Normal | Recv | Blocking

type 'task ops = {
  classify : 'task -> cls;
  stage : 'task -> bool;
  run : 'task -> unit;
  finish : 'task -> unit;
  arm : 'task -> unit;
  received : 'task -> unit;
  cancel : Cancel.t option;
}

(* What a drive loop applies on the coordinating thread: a pool
   kernel's result, or an armed Recv's. The two are counted apart:
   [in_flight] is what a collateral failure must wait for. *)
type 'task completion = Landed of 'task | Received of 'task

(* One mutex and one condition for every part of a step. Worker
   domains, senders' threads and the timer post under [lock] and signal
   [cond]; the thread that runs the step's parts, as fibers of
   {!run_parts}, waits on it. *)
type sync = { lock : Mutex.t; cond : Condition.t }

let sync () = { lock = Mutex.create (); cond = Condition.create () }

(* A fiber gives up the thread until [ready ()] holds. The runner calls
   [ready] under the sync's lock. A fiber must not park while it holds a
   mutex: the fibers of one thread share its ownership. *)
type _ Effect.t += Park : (unit -> bool) -> unit Effect.t

let park ready = Effect.perform (Park ready)

(* Run every part as a fiber of the calling thread. A part runs until
   it parks or returns; then the runner resumes the first parked part,
   in park order, whose predicate holds, and waits on the condition only
   when none does. *)
let run_parts s parts =
  let parked : ((unit -> bool) * (unit, unit) Effect.Deep.continuation) list ref
      =
    ref [] (* oldest first *)
  and failure = ref None in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = (fun e -> if !failure = None then failure := Some e);
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Park ready ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  parked := !parked @ [ (ready, k) ])
          | _ -> None);
    }
  in
  List.iter (fun part -> Effect.Deep.match_with part () handler) parts;
  let rec next () =
    match List.find_opt (fun (ready, _) -> ready ()) !parked with
    | Some ((_, k) as p) ->
        parked := List.filter (( != ) p) !parked;
        k
    | None ->
        Condition.wait s.cond s.lock;
        next ()
  in
  while !parked <> [] do
    Mutex.lock s.lock;
    let k = next () in
    Mutex.unlock s.lock;
    Effect.Deep.continue k ()
  done;
  Option.iter raise !failure

(* Completions cross from worker domains and from senders' threads back
   to the coordinating thread through [completions], pushed lock-free
   and signalled under the sync's lock; the counters are touched only by
   the coordinator, which reads [completions] without a lock. *)
type 'task t = {
  policy : policy;
  ops : 'task ops;
  ready : 'task Queue.t;
  blocking : 'task Queue.t;
  sync : sync;
  completions : 'task completion list Atomic.t;  (* reversed arrival order *)
  mutable in_flight : int;  (* kernels on the pool *)
  mutable armed : int;  (* Recvs armed, completion not yet applied *)
}

let create sync policy ops =
  {
    policy;
    ops;
    ready = Queue.create ();
    blocking = Queue.create ();
    sync;
    completions = Atomic.make [];
    in_flight = 0;
    armed = 0;
  }

(* The push precedes the signal, which takes the lock: a runner that
   saw no completion under the lock is in its wait before the signal. *)
let post t c =
  let rec push () =
    let cs = Atomic.get t.completions in
    if not (Atomic.compare_and_set t.completions cs (c :: cs)) then push ()
  in
  push ();
  Mutex.lock t.sync.lock;
  Condition.signal t.sync.cond;
  Mutex.unlock t.sync.lock

let received t task = post t (Received task)

let add t task =
  match t.ops.classify task with
  | Normal -> Queue.add task t.ready
  | Blocking -> Queue.add task t.blocking
  | Recv ->
      t.armed <- t.armed + 1;
      t.ops.arm task

let cancelled t =
  match t.ops.cancel with Some c -> Cancel.cancelled c <> None | None -> false

(* Take what has been posted; with [block], first wait until something
   is, or (with [cancellable]) the step's token has fired. The cancel
   waker signals under the sync's lock, so it cannot slip between the
   check and the wait. *)
let take ?(cancellable = true) ~block t =
  if block then
    park (fun () ->
        (match Atomic.get t.completions with [] -> false | _ -> true)
        || (cancellable && cancelled t));
  match Atomic.get t.completions with
  | [] -> []
  | _ -> List.rev (Atomic.exchange t.completions [])

let wake t () =
  Mutex.lock t.sync.lock;
  Condition.signal t.sync.cond;
  Mutex.unlock t.sync.lock

let apply t = function
  | Landed task ->
      t.in_flight <- t.in_flight - 1;
      t.ops.finish task
  | Received task ->
      t.armed <- t.armed - 1;
      t.ops.received task

(* Apply a batch in arrival order. If one raises, the rest go back to
   the front of the queue: a collateral failure still waits for them
   (see [settle]). *)
let rec apply_all t = function
  | [] -> ()
  | c :: rest ->
      (match apply t c with
      | () -> ()
      | exception e ->
          let rec requeue () =
            let cs = Atomic.get t.completions in
            if
              not
                (Atomic.compare_and_set t.completions cs (cs @ List.rev rest))
            then requeue ()
          in
          requeue ();
          raise e);
      apply_all t rest

let pause t seconds =
  let fired = ref false in
  ignore
    (Timer.at
       (Unix.gettimeofday () +. seconds)
       (fun () ->
         Mutex.lock t.sync.lock;
         fired := true;
         Condition.signal t.sync.cond;
         Mutex.unlock t.sync.lock));
  park (fun () -> !fired)

let run_now t task =
  if t.ops.stage task then begin
    t.ops.run task;
    t.ops.finish task
  end

let dispatch t task =
  if t.ops.stage task then begin
    t.in_flight <- t.in_flight + 1;
    Domain_pool.submit (fun () ->
        t.ops.run task;
        post t (Landed task))
  end

(* One loop for both policies; they differ only in where a ready
   kernel runs. Ready work goes first, then whatever has been posted;
   a blocking task runs only when no kernel is in flight and nothing
   is ready, and the loop parks on the completion queue only when what
   it waits for is a kernel or an armed Recv. *)
let rec loop t =
  Cancel.check_opt t.ops.cancel;
  if not (Queue.is_empty t.ready) then begin
    (match t.policy with
    | Inline -> run_now t (Queue.pop t.ready)
    | Pool ->
        while not (Queue.is_empty t.ready) do
          dispatch t (Queue.pop t.ready)
        done);
    loop t
  end
  else
    match take ~block:false t with
    | _ :: _ as cs ->
        apply_all t cs;
        loop t
    | [] ->
        if t.in_flight > 0 || (t.armed > 0 && Queue.is_empty t.blocking)
        then begin
          apply_all t (take ~block:true t);
          loop t
        end
        else if not (Queue.is_empty t.blocking) then begin
          run_now t (Queue.pop t.blocking);
          loop t
        end

(* Collateral failures describe another failure: the step was
   cancelled, or a peer aborted the rendezvous. *)
let collateral = function
  | Rendezvous.Aborted _ -> true
  | Step_failure.Error f -> Step_failure.is_secondary f.Step_failure.cause
  | _ -> false

(* A part's own failure wins. A kernel of this part that fails on a
   worker domain aborts the rendezvous and cancels the step before its
   result is posted, so the part's own Recvs may fail, or its
   token fire, ahead of the root cause. A collateral failure is
   therefore raised only once no kernel is in flight; a primary one met
   on the way replaces it. *)
let rec settle t e =
  if t.in_flight = 0 then raise e
  else begin
    List.iter
      (fun c ->
        match apply t c with () -> () | exception e' when collateral e' -> ())
      (take ~cancellable:false ~block:true t);
    settle t e
  end

let drive t =
  Cancel.with_waker t.ops.cancel (wake t) (fun () ->
      try loop t with e when collateral e && t.in_flight > 0 -> settle t e)
