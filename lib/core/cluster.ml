type task = {
  job : string;
  index : int;
  resources : Resource_manager.t;
  task_devices : Device.t list;
}

type t = { tasks : task list }

let create ~jobs =
  let tasks =
    List.concat_map
      (fun (job, count, dev_types) ->
        List.init count (fun index ->
            let task_devices =
              List.map
                (fun ty -> Device.make ~job ~task:index ~index:0 ty)
                dev_types
            in
            { job; index; resources = Resource_manager.create (); task_devices }))
      jobs
  in
  { tasks }

let devices t = List.concat_map (fun task -> task.task_devices) t.tasks

let task_names t =
  List.map
    (fun task -> Printf.sprintf "/job:%s/task:%d" task.job task.index)
    t.tasks

let find_task t ~job ~task =
  List.find_opt (fun tk -> tk.job = job && tk.index = task) t.tasks

let missing_task t ~job ~task =
  Step_failure.error
    (Step_failure.Missing_task
       (Printf.sprintf "no task /job:%s/task:%d in cluster (known tasks: %s)"
          job task
          (String.concat ", " (task_names t))))

let resources_of t (d : Device.t) =
  match find_task t ~job:d.Device.job ~task:d.Device.task with
  | Some tk -> tk.resources
  | None -> raise (missing_task t ~job:d.Device.job ~task:d.Device.task)

let task_resources t ~job ~task =
  match find_task t ~job ~task with
  | Some tk -> tk.resources
  | None -> raise (missing_task t ~job ~task)

let restart_task t ~job ~task =
  match find_task t ~job ~task with
  | Some tk ->
      (* A restarted task comes back empty-handed: its in-memory state
         (variables, queues) is gone and must be re-created, then
         refilled from a checkpoint (§4.3). *)
      Resource_manager.clear tk.resources
  | None -> raise (missing_task t ~job ~task)

let session ?(config = Session.Config.default) t graph =
  (* The cluster owns the device list and the per-task resource
     routing; everything else comes from the caller's config. *)
  Session.create
    ~config:
      {
        config with
        Session.Config.devices = Some (devices t);
        resource_router = Some (resources_of t);
      }
    graph
