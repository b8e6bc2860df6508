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

type staged = Finish of (unit -> unit) | Offload of (unit -> unit -> unit)

type cls = Normal | Recv | Blocking

type 'task ops = {
  classify : 'task -> cls;
  stage : 'task -> staged;
  run_blocking : 'task -> unit;
  poll_recv : 'task -> (unit -> unit) option;
  rendezvous : Rendezvous.t option;
  cancel : Cancel.t option;
}

(* Completions cross from worker domains back to the coordinating
   thread through [completions]; [in_flight] is touched only by the
   coordinator. *)
type 'task t = {
  policy : policy;
  ops : 'task ops;
  ready : 'task Queue.t;
  ready_recv : 'task Queue.t;
  ready_blocking : 'task Queue.t;
  mutex : Mutex.t;
  have_completion : Condition.t;
  mutable completions : (unit -> unit) list;  (* reversed arrival order *)
  mutable in_flight : int;
}

let create policy ops =
  {
    policy;
    ops;
    ready = Queue.create ();
    ready_recv = Queue.create ();
    ready_blocking = Queue.create ();
    mutex = Mutex.create ();
    have_completion = Condition.create ();
    completions = [];
    in_flight = 0;
  }

let add t task =
  match t.ops.classify task with
  | Normal -> Queue.add task t.ready
  | Recv -> Queue.add task t.ready_recv
  | Blocking -> Queue.add task t.ready_blocking

(* ------------------------------------------------------------------ *)
(* Recv polling, shared by both policies                               *)
(* ------------------------------------------------------------------ *)

(* Poll each pending Recv once; stop at the first success so newly-ready
   downstream work gets priority again. Returns true on progress. *)
let poll_recvs t =
  let n = Queue.length t.ready_recv in
  let progressed = ref false in
  for _ = 1 to n do
    if not !progressed then begin
      let task = Queue.pop t.ready_recv in
      match t.ops.poll_recv task with
      | Some k ->
          k ();
          progressed := true
      | None -> Queue.add task t.ready_recv
    end
  done;
  !progressed

(* ------------------------------------------------------------------ *)
(* Inline policy: the original single-threaded loop                    *)
(* ------------------------------------------------------------------ *)

let run_now t task =
  match t.ops.stage task with Finish k -> k () | Offload run -> (run ()) ()

let rec drive_inline t =
  Cancel.check_opt t.ops.cancel;
  if not (Queue.is_empty t.ready) then begin
    run_now t (Queue.pop t.ready);
    drive_inline t
  end
  else if not (Queue.is_empty t.ready_recv) then begin
    (match t.ops.rendezvous with
    | None -> t.ops.run_blocking (Queue.pop t.ready_recv)
    | Some r ->
        let gen = Rendezvous.generation r in
        if not (poll_recvs t) then
          if not (Queue.is_empty t.ready_blocking) then
            t.ops.run_blocking (Queue.pop t.ready_blocking)
          else
            ignore (Rendezvous.wait_new ?cancel:t.ops.cancel r ~last:gen));
    drive_inline t
  end
  else if not (Queue.is_empty t.ready_blocking) then begin
    t.ops.run_blocking (Queue.pop t.ready_blocking);
    drive_inline t
  end

(* ------------------------------------------------------------------ *)
(* Pool policy: offload onto the shared domain pool                    *)
(* ------------------------------------------------------------------ *)

let push_completion t k =
  Mutex.lock t.mutex;
  t.completions <- k :: t.completions;
  Condition.signal t.have_completion;
  Mutex.unlock t.mutex

let take_completions ~block t =
  Mutex.lock t.mutex;
  if block then
    while t.completions = [] do
      Condition.wait t.have_completion t.mutex
    done;
  let ks = t.completions in
  t.completions <- [];
  Mutex.unlock t.mutex;
  List.rev ks

let apply_completions t ks =
  (* Count every completion as landed before applying any: a raising
     continuation must not leave [in_flight] claiming work that has in
     fact arrived. *)
  t.in_flight <- t.in_flight - List.length ks;
  List.iter (fun k -> k ()) ks

let dispatch t task =
  match t.ops.stage task with
  | Finish k -> k ()
  | Offload run ->
      t.in_flight <- t.in_flight + 1;
      Domain_pool.submit (fun () ->
          let k = try run () with e -> fun () -> raise e in
          push_completion t k)

let rec drive_pool t =
  Cancel.check_opt t.ops.cancel;
  (* Keep the pool fed: everything ready goes out before we wait. *)
  while not (Queue.is_empty t.ready) do
    dispatch t (Queue.pop t.ready)
  done;
  let ks = take_completions ~block:false t in
  if ks <> [] then begin
    apply_completions t ks;
    drive_pool t
  end
  else if
    (not (Queue.is_empty t.ready_recv)) && t.ops.rendezvous <> None
  then begin
    let r = Option.get t.ops.rendezvous in
    let gen = Rendezvous.generation r in
    if poll_recvs t then drive_pool t
    else if t.in_flight > 0 then begin
      apply_completions t (take_completions ~block:true t);
      drive_pool t
    end
    else if not (Queue.is_empty t.ready_blocking) then begin
      (* No non-blocking work remains anywhere: safe to park. *)
      t.ops.run_blocking (Queue.pop t.ready_blocking);
      drive_pool t
    end
    else begin
      ignore (Rendezvous.wait_new ?cancel:t.ops.cancel r ~last:gen);
      drive_pool t
    end
  end
  else if t.in_flight > 0 then begin
    apply_completions t (take_completions ~block:true t);
    drive_pool t
  end
  else if not (Queue.is_empty t.ready_recv) then begin
    (* No rendezvous: a Recv can only run (and fail) inline. *)
    t.ops.run_blocking (Queue.pop t.ready_recv);
    drive_pool t
  end
  else if not (Queue.is_empty t.ready_blocking) then begin
    t.ops.run_blocking (Queue.pop t.ready_blocking);
    drive_pool t
  end

let drive t =
  match t.policy with Inline -> drive_inline t | Pool -> drive_pool t
