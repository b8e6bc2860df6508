(* Shared worker-domain pool. One instance per process, created lazily
   and torn down in at_exit so the runtime never exits with a domain
   mid-task. All state is guarded by [mutex]; workers sleep on [cond]. *)

type t = {
  mutex : Mutex.t;
  cond : Condition.t;  (* signalled on submit and on shutdown *)
  tasks : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let env = Octf_tensor.Env.int ~min:1 "OCTF_POOL_SIZE"

let size () =
  match Octf_tensor.Env.get env with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let worker_loop pool () =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.tasks && not pool.stop do
      Condition.wait pool.cond pool.mutex
    done;
    if Queue.is_empty pool.tasks then (* stop, queue drained *)
      Mutex.unlock pool.mutex
    else begin
      let task = Queue.pop pool.tasks in
      Mutex.unlock pool.mutex;
      (try task ()
       with e ->
         Printf.eprintf "octf: Domain_pool task raised %s\n%!"
           (Printexc.to_string e));
      loop ()
    end
  in
  loop ()

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let instance = ref None
let instance_mutex = Mutex.create ()

(* Called with [instance_mutex] held. *)
let create_locked () =
  match !instance with
  | Some pool -> pool
  | None ->
      let pool =
        {
          mutex = Mutex.create ();
          cond = Condition.create ();
          tasks = Queue.create ();
          stop = false;
          workers = [];
        }
      in
      pool.workers <-
        List.init (size ()) (fun _ -> Domain.spawn (worker_loop pool));
      instance := Some pool;
      at_exit (fun () -> shutdown pool);
      pool

(* Concurrent partition threads may hit the first submit at once; the
   creation mutex makes the pool a true singleton. *)
let get () =
  match !instance with
  | Some pool -> pool
  | None ->
      Mutex.lock instance_mutex;
      let pool = create_locked () in
      Mutex.unlock instance_mutex;
      pool

let submit task =
  let pool = get () in
  Mutex.lock pool.mutex;
  Queue.add task pool.tasks;
  Condition.signal pool.cond;
  Mutex.unlock pool.mutex

(* Wire the tensor library's intra-op sharder onto this pool. The tensor
   library cannot depend on the runtime, so it exposes a backend hook;
   module initialisation runs before any kernel executes, and the pool
   itself is still created lazily on the first parallel kernel. *)
let () = Octf_tensor.Parallel.set_backend submit
