
exception Run_error of Step_failure.t

let m_steps =
  Metrics.Counter.v ~help:"Session steps started" "octf_session_steps_total"

let m_cache_hits =
  Metrics.Counter.v ~help:"Step-cache hits" "octf_session_cache_hits_total"

let m_cache_misses =
  Metrics.Counter.v ~help:"Step-cache misses (step compilations)"
    "octf_session_cache_misses_total"

let m_deadline_expiries =
  Metrics.Counter.v ~help:"Steps failed by deadline expiry"
    "octf_session_deadline_expiries_total"

let m_errors cause =
  Metrics.Counter.v ~help:"Step failures by cause kind"
    ~labels:[ ("cause", cause) ]
    "octf_session_errors_total"

let m_step_seconds =
  Metrics.Histogram.v ~help:"Step wall-clock seconds"
    "octf_session_step_seconds"

let m_in_flight =
  Metrics.Gauge.v ~help:"Pipelined steps currently admitted"
    "octf_steps_in_flight"

let m_stall =
  Metrics.Counter.v
    ~help:"Seconds run_async callers spent blocked on admission"
    "octf_pipeline_stall_seconds"

let run_error ?node ?device cause = Run_error (Step_failure.v ?node ?device cause)

let invalid msg = run_error (Step_failure.Invalid_graph msg)

module Run_options = struct
  type t = {
    feeds : (Builder.output * Octf_tensor.Tensor.t) list;
    targets : Builder.output list;
    deadline : float option;
    trace : bool;
    collect_stats : bool;
    cancel : Cancel.t option;
    tracer : Tracer.t option;
  }

  let default =
    {
      feeds = [];
      targets = [];
      deadline = None;
      trace = false;
      collect_stats = false;
      cancel = None;
      tracer = None;
    }

  let v ?(feeds = []) ?(targets = []) ?deadline ?(trace = false)
      ?(collect_stats = false) ?cancel ?tracer () =
    { feeds; targets; deadline; trace; collect_stats; cancel; tracer }
end

module Run_metadata = struct
  type t = {
    step_id : int;
    wall_time : float;
    step_stats : Step_stats.t option;
    tracer : Tracer.t option;
  }
end

(* Construction-time configuration — TensorFlow's ConfigProto. [of_env]
   is the one resolution point: config field > OCTF_* variable >
   built-in default. *)
module Config = struct
  type t = {
    devices : Device.t list option;
    resource_router : (Device.t -> Resource_manager.t) option;
    seed : int option;
    passes : Graph_optimizer.pass list option;
    scheduler : Scheduler.policy option;
    intra_op_threads : int option;
    memory_planning : bool option;
    fusion : bool option;
    quantize : bool option;
    max_in_flight : int option;
    barrier : bool;
    remote : Remote.runner option;
  }

  let default =
    {
      devices = None;
      resource_router = None;
      seed = None;
      passes = None;
      scheduler = None;
      intra_op_threads = None;
      memory_planning = None;
      fusion = None;
      quantize = None;
      max_in_flight = None;
      barrier = false;
      remote = None;
    }

  let v ?devices ?resource_router ?seed ?passes ?scheduler ?intra_op_threads
      ?memory_planning ?fusion ?quantize ?max_in_flight ?(barrier = false)
      ?remote () =
    {
      devices;
      resource_router;
      seed;
      passes;
      scheduler;
      intra_op_threads;
      memory_planning;
      fusion;
      quantize;
      max_in_flight;
      barrier;
      remote;
    }

  let fusion_env = Octf_tensor.Env.bool "OCTF_FUSION"
  let quantize_env = Octf_tensor.Env.bool "OCTF_QUANTIZE"
  let max_in_flight_env = Octf_tensor.Env.int ~min:1 "OCTF_MAX_IN_FLIGHT"

  (* A variable is read only when its field is unset. Memory planning's
     variable already initialised the process-wide [Mem_plan.enabled]. *)
  let of_env c =
    let resolve field var default =
      match field with
      | Some _ -> field
      | None -> Some (Option.value (Octf_tensor.Env.get var) ~default)
    in
    {
      c with
      seed = Some (Option.value c.seed ~default:42);
      scheduler = resolve c.scheduler Scheduler.env Scheduler.Inline;
      memory_planning =
        Some (Option.value c.memory_planning ~default:(Mem_plan.enabled ()));
      fusion = resolve c.fusion fusion_env true;
      quantize = resolve c.quantize quantize_env false;
      max_in_flight = resolve c.max_in_flight max_in_flight_env 1;
    }
end

(* A step in flight. The spawning thread publishes exactly one result
   (or failure) under [h_mutex]; [wait] blocks on [h_cond]. *)
type handle = {
  h_id : int;
  h_mutex : Mutex.t;
  h_cond : Condition.t;
  mutable h_result :
    (Octf_tensor.Tensor.t list * Run_metadata.t, Step_failure.t) result
    option;
}

type compiled_step =
  | Local of { plan : Executor.plan; device : Device.t option }
  | Distributed of (Partition.partition * Executor.plan) list

type t = {
  graph : Graph.t;
  devices : Device.t list;
  resource_router : Device.t -> Resource_manager.t;
  default_resources : Resource_manager.t;
  cache : (string, compiled_step) Hashtbl.t;
  mutable step_counter : int;
  seed : int;
  passes : Graph_optimizer.pass list;
  scheduler : Scheduler.policy;
  memory_planning : bool;
  remote : Remote.runner option;
      (* out-of-process runtime: partitions on non-[is_local] devices
         are dispatched as Run_step RPCs instead of executor threads,
         and all tensor traffic uses the runner's shared routed
         rendezvous *)
  mutable drained_to : int;  (* steps retired by the last [drain] sweep *)
  mutex : Mutex.t;
  (* Pipeline controller: at most [max_in_flight] async steps admitted
     at once. [admit] waits on [mutex]; [pending] tracks live handles
     for [drain]. *)
  max_in_flight : int;
  mutable in_flight : int;
  admit : Condition.t;
  pending : (int, handle) Hashtbl.t;
  mutable async_seq : int;
}

let create ?(config = Config.default) graph =
  let c = Config.of_env config in
  (* [of_env] filled every field read with [Option.get]. *)
  let passes =
    match c.passes with
    | Some ps -> ps
    | None ->
        let base =
          if Option.get c.fusion then Graph_optimizer.fused_pipeline
          else Graph_optimizer.default_pipeline
        in
        (* Quantized kernels change numerics, so the pass is opt-in. It
           only rewrites contractions whose weights are F32 Consts, which
           freezing produces, so it is inert on training graphs. *)
        if Option.get c.quantize then
          base
          @ [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
        else base
  in
  (* Process-wide hardware knob, mirroring TF's
     intra_op_parallelism_threads in ConfigProto. *)
  Option.iter Octf_tensor.Parallel.set_threads c.intra_op_threads;
  let default_resources = Resource_manager.create () in
  let devices =
    match c.devices with
    | Some ds when ds <> [] -> ds
    | _ -> [ Device.make ~job:"localhost" ~task:0 ~index:0 Device.CPU ]
  in
  let resource_router =
    match c.resource_router with
    | Some f -> f
    | None -> fun _ -> default_resources
  in
  (* Barrier mode pins the pipeline to one step in flight: async steps
     serialize and read live variables, so results are bit-identical to
     the pre-pipelining session whatever [max_in_flight] asked for. *)
  let max_in_flight =
    match Option.get c.max_in_flight with
    | _ when c.barrier -> 1
    | k when k >= 1 -> k
    | k -> invalid_arg (Printf.sprintf "Session.create: max_in_flight %d < 1" k)
  in
  {
    graph;
    devices;
    resource_router;
    default_resources;
    cache = Hashtbl.create 8;
    step_counter = 0;
    seed = Option.get c.seed;
    passes;
    scheduler = Option.get c.scheduler;
    memory_planning = Option.get c.memory_planning;
    remote = c.remote;
    drained_to = 0;
    mutex = Mutex.create ();
    max_in_flight;
    in_flight = 0;
    admit = Condition.create ();
    pending = Hashtbl.create 8;
    async_seq = 0;
  }

let graph t = t.graph

let scheduler t = t.scheduler

let max_in_flight t = t.max_in_flight

let resources t = t.default_resources

let resources_for t d = t.resource_router d

let cached_steps t = Hashtbl.length t.cache

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let signature ~feed_eps ~fetch_eps ~target_ids =
  let ep (e : Node.endpoint) = Printf.sprintf "%d:%d" e.node_id e.index in
  String.concat ","
    (List.sort compare (List.map ep feed_eps))
  ^ "|"
  ^ String.concat "," (List.map ep fetch_eps)
  ^ "|"
  ^ String.concat "," (List.map string_of_int (List.sort compare target_ids))

let compile t ~feed_eps ~fetch_eps ~target_ids =
  let nodes =
    Graph_optimizer.run t.graph ~passes:t.passes ~feeds:feed_eps
      ~fetches:fetch_eps ~targets:target_ids
  in
  (* Place the whole graph, not just this step's pruned subset. In a
     multi-process (SPMD) cluster each process compiles only the steps
     it runs or serves, so per-subset placement would let the
     least-loaded tiebreak see different load histories in different
     processes and diverge — mismatched partitions deadlock the step's
     Send/Recv pairs. Placing every node on first contact keeps the
     assignment a deterministic function of the shared graph alone. *)
  Placement.place t.graph
    ~nodes:(List.init (Graph.node_count t.graph) Fun.id)
    ~devices:t.devices;
  let devs =
    List.sort_uniq compare
      (List.filter_map
         (fun id -> (Graph.get t.graph id).Node.assigned_device)
         nodes)
  in
  let fed_ids = List.map (fun (e : Node.endpoint) -> e.node_id) feed_eps in
  let prepare ~graph ~nodes ~fed_ids =
    try
      Executor.prepare ~scheduler:t.scheduler
        ~memory_planning:t.memory_planning ~graph ~nodes ~fed_ids
    with Step_failure.Error f -> raise (Run_error f)
  in
  match devs with
  | [] | [ _ ] ->
      let plan = prepare ~graph:t.graph ~nodes ~fed_ids in
      Local { plan; device = (match devs with [ d ] -> Some d | _ -> None) }
  | _ -> (
      match Partition.partition t.graph ~nodes with
      | Ok parts ->
          Distributed
            (List.map
               (fun (p : Partition.partition) ->
                 let local_fed =
                   List.filter_map
                     (fun e ->
                       Option.map
                         (fun (l : Node.endpoint) -> l.Node.node_id)
                         (Partition.find_endpoint p e))
                     feed_eps
                 in
                 ( p,
                   prepare ~graph:p.Partition.subgraph
                     ~nodes:p.Partition.node_ids ~fed_ids:local_fed ))
               parts)
      | Error msg -> raise (invalid ("partitioning failed: " ^ msg)))

let find_or_compile t ~feed_eps ~fetch_eps ~target_ids =
  with_lock t (fun () ->
      let sg = signature ~feed_eps ~fetch_eps ~target_ids in
      match Hashtbl.find_opt t.cache sg with
      | Some s ->
          Metrics.Counter.incr m_cache_hits;
          s
      | None ->
          Metrics.Counter.incr m_cache_misses;
          let s = compile t ~feed_eps ~fetch_eps ~target_ids in
          Hashtbl.replace t.cache sg s;
          s)

(* Normalize a step definition to the endpoint lists forming its cache
   signature. Fetching an output-less operation (a NoOp group such as a
   train op) means "run it": such fetches are rerouted to the target
   list, and [run_with] returns a scalar 0 in their position. *)
let normalize_step ~feed_outputs ~targets fetches =
  let fetches_tagged =
    List.map
      (fun (o : Builder.output) ->
        if Node.num_outputs o.Builder.node = 0 then `Target o else `Fetch o)
      fetches
  in
  let targets =
    targets
    @ List.filter_map
        (function `Target o -> Some o | `Fetch _ -> None)
        fetches_tagged
  in
  let fetches =
    List.filter_map
      (function `Fetch o -> Some o | `Target _ -> None)
      fetches_tagged
  in
  let feed_eps = List.map Builder.endpoint_of_output feed_outputs in
  let fetch_eps = List.map Builder.endpoint_of_output fetches in
  let target_ids =
    List.map (fun (o : Builder.output) -> o.Builder.node.Node.id) targets
  in
  (fetches_tagged, fetches, feed_eps, fetch_eps, target_ids)

let precompile ?(feeds = []) ?(targets = []) t fetches =
  let _, _, feed_eps, fetch_eps, target_ids =
    normalize_step ~feed_outputs:feeds ~targets fetches
  in
  ignore (find_or_compile t ~feed_eps ~fetch_eps ~target_ids)

let value_to_tensor ~what v =
  match v with
  | Value.Tensor tensor -> tensor
  | Value.Resource r ->
      raise
        (run_error ~node:what
           (Step_failure.Fetch_failed
              (Printf.sprintf "fetch %s produced a reference handle (%s)"
                 what (Resource.name r))))
  | Value.Dead ->
      raise
        (run_error ~node:what
           (Step_failure.Fetch_failed
              (Printf.sprintf "fetch %s produced a dead value" what)))

let run_with ?tracer ?deadline ?cancel:parent ?var_snapshot ?(feeds = [])
    ?(targets = []) t fetches =
  let fetches_tagged, fetches, feed_eps, fetch_eps, target_ids =
    normalize_step ~feed_outputs:(List.map fst feeds) ~targets fetches
  in
  let feed_vals =
    List.map
      (fun (o, tensor) ->
        (Builder.endpoint_of_output o, Value.Tensor tensor))
      feeds
  in
  let step = find_or_compile t ~feed_eps ~fetch_eps ~target_ids in
  let step_id =
    with_lock t (fun () ->
        t.step_counter <- t.step_counter + 1;
        t.step_counter)
  in
  (* One cancellation token per step: a deadline arms its watchdog,
     distributed steps always carry a token so one partition's failure
     wakes peers parked in queue or rendezvous waits, and a [parent]
     token (a pipeline's filler group) cancels this step when the whole
     group is stopped. *)
  let device_is_remote d =
    match t.remote with
    | Some r -> not (r.Remote.is_local d)
    | None -> false
  in
  let needs_token =
    match step with
    | Distributed _ -> true
    | Local { device = Some d; _ } -> device_is_remote d
    | Local { device = None; _ } -> false
  in
  let cancel =
    match (deadline, parent) with
    | Some d, _ -> Some (Cancel.create ?parent ~deadline:d ())
    | None, Some _ -> Some (Cancel.create ?parent ())
    | None, None -> if needs_token then Some (Cancel.create ()) else None
  in
  (* One Run_step RPC executing [job]/[task]'s partitions of this step
     in its own process. The full feed/fetch/target endpoint lists go
     on the wire: the peer compiled the same graph, so the lists both
     reproduce the step signature (hitting its step cache) and let it
     select the subsets its partitions own. *)
  let feed_tensors =
    lazy
      (List.map
         (fun (o, tensor) -> (Builder.endpoint_of_output o, tensor))
         feeds)
  in
  let call_remote r ~job ~task =
    r.Remote.run_partitions ~job ~task ~step_id
      ~feeds:(Lazy.force feed_tensors) ~fetches:fetch_eps
      ~targets:target_ids ~deadline ~cancel
  in
  let execute_step () =
    match step with
    | Local { plan = _; device = Some d } when device_is_remote d -> (
        (* the whole pruned step lives on a remote task *)
        let r = Option.get t.remote in
        match call_remote r ~job:d.Device.job ~task:d.Device.task with
        | Error f -> raise (Run_error f)
        | Ok pairs ->
            List.map2
              (fun (o : Builder.output) e ->
                match List.assoc_opt e pairs with
                | Some v ->
                    value_to_tensor ~what:o.Builder.node.Node.name v
                | None ->
                    raise
                      (run_error ~node:o.Builder.node.Node.name
                         (Step_failure.Fetch_failed
                            ("fetch not returned by remote task: "
                           ^ o.Builder.node.Node.name))))
              fetches fetch_eps)
    | Local { plan; device } ->
      let resources =
        match device with
        | Some d -> t.resource_router d
        | None -> t.default_resources
      in
      let values =
        try
          Executor.execute plan ~feeds:feed_vals ~fetches:fetch_eps
            ~resources ?tracer ?cancel ~seed:t.seed ~step_id ?var_snapshot
            ()
        with Step_failure.Error f -> raise (Run_error f)
      in
      List.map2
        (fun (o : Builder.output) v ->
          value_to_tensor ~what:o.Builder.node.Node.name v)
        fetches values
  | Distributed parts ->
      (* With an out-of-process runtime the step uses the shared routed
         rendezvous (never aborted — teardown is per step, via the
         cancel token); otherwise a private per-step one. *)
      let rendezvous =
        match t.remote with
        | Some r -> r.Remote.rendezvous
        | None -> Rendezvous.create ()
      in
      let results : (string, (Node.endpoint * Value.t) list) Hashtbl.t =
        Hashtbl.create 8
      in
      let errors = ref [] in
      let results_mutex = Mutex.create () in
      let record_failure (f : Step_failure.t) =
        let msg = Step_failure.to_string f in
        (* A shared rendezvous must never be aborted — the abort is
           sticky and would poison every later step. The cancel token
           wakes this step's parked receivers instead. *)
        if Option.is_none t.remote then
          Rendezvous.abort rendezvous ~reason:msg;
        Option.iter (fun c -> Cancel.cancel c ~reason:msg) cancel;
        Mutex.lock results_mutex;
        errors := f :: !errors;
        Mutex.unlock results_mutex
      in
      let run_part ((p : Partition.partition), plan) =
        let local_feeds =
          List.filter_map
            (fun ((e : Node.endpoint), v) ->
              match Partition.find_endpoint p e with
              | Some local -> Some (local, v)
              | None -> None)
            feed_vals
        in
        let local_fetches =
          List.filter_map
            (fun e ->
              match Partition.find_endpoint p e with
              | Some local -> Some (e, local)
              | None -> None)
            fetch_eps
        in
        let device = Device.to_string p.Partition.device in
        try
          let vs =
            Executor.execute plan ~feeds:local_feeds
              ~fetches:(List.map snd local_fetches)
              ~resources:(t.resource_router p.Partition.device)
              ~rendezvous ?tracer ?cancel ~seed:t.seed ~step_id
              ?var_snapshot ()
          in
          Mutex.lock results_mutex;
          Hashtbl.replace results device
            (List.map2 (fun (orig, _) v -> (orig, v)) local_fetches vs);
          Mutex.unlock results_mutex
        with
        | Step_failure.Error f ->
            record_failure
              (if f.Step_failure.device = None then
                 { f with Step_failure.device = Some device }
               else f)
        | Rendezvous.Aborted reason ->
            record_failure
              (Step_failure.v ~device (Step_failure.Rendezvous_aborted reason))
        | e ->
            record_failure
              (Step_failure.v ~device
                 (Step_failure.Kernel_failed (Printexc.to_string e)))
      in
      (* Partitions on devices owned by other processes collapse into
         one Run_step RPC per remote task; the rest run on executor
         threads here as before. *)
      let local_parts, remote_tasks =
        match t.remote with
        | None -> (parts, [])
        | Some r ->
            ( List.filter
                (fun ((p : Partition.partition), _) ->
                  r.Remote.is_local p.Partition.device)
                parts,
              List.sort_uniq compare
                (List.filter_map
                   (fun ((p : Partition.partition), _) ->
                     if r.Remote.is_local p.Partition.device then None
                     else
                       Some
                         ( p.Partition.device.Device.job,
                           p.Partition.device.Device.task ))
                   parts) )
      in
      let run_remote (job, task) =
        let r = Option.get t.remote in
        match call_remote r ~job ~task with
        | Ok pairs ->
            Mutex.lock results_mutex;
            Hashtbl.replace results (Printf.sprintf "rpc:%s/%d" job task)
              pairs;
            Mutex.unlock results_mutex
        | Error f -> record_failure f
      in
      let threads =
        List.map (fun p -> Thread.create run_part p) local_parts
        @ List.map (fun rt -> Thread.create run_remote rt) remote_tasks
      in
      List.iter Thread.join threads;
      (* Scrub entries this step leaked (sends whose Recv died with the
         step); essential on the long-lived shared rendezvous, keeps
         the pending gauge honest on private ones. *)
      (match t.remote with
      | Some r -> r.Remote.retire_step ~step_id
      | None -> ignore (Rendezvous.drop_step rendezvous ~step_id));
      (* Prefer the root cause: a partition's own failure over the
         "peer aborted me" / "step was cancelled" collateral. *)
      (match
         List.stable_sort
           (fun (a : Step_failure.t) b ->
             compare
               (Step_failure.is_secondary a.Step_failure.cause)
               (Step_failure.is_secondary b.Step_failure.cause))
           (List.rev !errors)
       with
      | f :: _ -> raise (Run_error f)
      | [] -> ());
      let all_results =
        Hashtbl.fold (fun _ l acc -> l @ acc) results []
      in
      List.map2
        (fun (o : Builder.output) e ->
          match List.assoc_opt e all_results with
          | Some v -> value_to_tensor ~what:o.Builder.node.Node.name v
          | None ->
              raise
                (run_error ~node:o.Builder.node.Node.name
                   (Step_failure.Fetch_failed
                      ("fetch not produced by any partition: "
                      ^ o.Builder.node.Node.name))))
        fetches fetch_eps
  in
  let results =
    match cancel with
    | None -> execute_step ()
    | Some c -> Fun.protect ~finally:(fun () -> Cancel.complete c) execute_step
  in
  (* Re-interleave dummy results for target-style fetches. *)
  let remaining = ref results in
  let tensors =
    List.map
      (function
        | `Target _ -> Octf_tensor.Tensor.scalar_i 0
        | `Fetch _ -> (
            match !remaining with
            | v :: tl ->
                remaining := tl;
                v
            | [] -> assert false))
      fetches_tagged
  in
  (tensors, step_id)

let run_md ?var_snapshot ~options t fetches =
  let {
    Run_options.feeds;
    targets;
    deadline;
    trace;
    collect_stats;
    cancel;
    tracer = shared_tracer;
  } =
    options
  in
  (* One tracer observes the step when either consumer wants it; the
     executor's kernel timing keys off its presence. A caller-supplied
     tracer (pipelined runs visualizing step overlap) wins. *)
  let tracer =
    match shared_tracer with
    | Some _ -> shared_tracer
    | None -> if trace || collect_stats then Some (Tracer.create ()) else None
  in
  Metrics.Counter.incr m_steps;
  let t0 = Unix.gettimeofday () in
  match
    run_with ?tracer ?deadline ?cancel ?var_snapshot ~feeds ~targets t
      fetches
  with
  | tensors, step_id ->
      let wall_time = Unix.gettimeofday () -. t0 in
      Metrics.Histogram.observe m_step_seconds wall_time;
      let step_stats =
        if collect_stats then
          (* [of_tracer] filters by step id, so a tracer shared across
             in-flight steps still yields per-step stats. *)
          Option.map (Step_stats.of_tracer ~step_id) tracer
        else None
      in
      (tensors, { Run_metadata.step_id; wall_time; step_stats; tracer })
  | exception Run_error f ->
      Metrics.Counter.incr
        (m_errors (Step_failure.cause_kind f.Step_failure.cause));
      (match f.Step_failure.cause with
      | Step_failure.Deadline_exceeded _ ->
          Metrics.Counter.incr m_deadline_expiries
      | _ -> ());
      raise (Run_error f)

let run_with_metadata ?(options = Run_options.default) t fetches =
  run_md ~options t fetches

(* Admission-time snapshot of every variable reachable from this
   session's resource managers. [Read] kernels of a pipelined step see
   these values — the version a variable had when the step was admitted
   — while updates (Assign*, scatter, counters) keep landing on the
   live variables in completion order: the paper's asynchronous SGD
   consistency model. *)
let snapshot_variables t =
  let managers =
    List.fold_left
      (fun acc m -> if List.memq m acc then acc else m :: acc)
      [ t.default_resources ]
      (List.map t.resource_router t.devices)
  in
  let tbl : (string, Octf_tensor.Tensor.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun (v : Resource.variable) ->
          match Resource.variable_peek v with
          | Some (tensor, _version) ->
              Hashtbl.replace tbl v.Resource.var_name tensor
          | None -> ())
        (Resource_manager.variables m))
    managers;
  fun name -> Hashtbl.find_opt tbl name

(* Same lookup, as the public face: the name -> tensor function a
   freeze pass ({!Graph_optimizer.Freeze}, {!Octf_serving}) consumes
   to fold this session's trained variables into constants. *)
let variable_values t = snapshot_variables t

let run_async ?(options = Run_options.default) t fetches =
  let wait_start = Unix.gettimeofday () in
  let h =
    with_lock t (fun () ->
        while t.in_flight >= t.max_in_flight do
          Condition.wait t.admit t.mutex
        done;
        let stalled = Unix.gettimeofday () -. wait_start in
        if stalled > 0.0 then Metrics.Counter.add_f m_stall stalled;
        t.in_flight <- t.in_flight + 1;
        Metrics.Gauge.set m_in_flight (float_of_int t.in_flight);
        t.async_seq <- t.async_seq + 1;
        let h =
          {
            h_id = t.async_seq;
            h_mutex = Mutex.create ();
            h_cond = Condition.create ();
            h_result = None;
          }
        in
        Hashtbl.replace t.pending h.h_id h;
        h)
  in
  (* Snapshot only when steps can actually overlap: at K = 1 (including
     barrier mode) reads stay live and behavior is bit-identical to the
     synchronous session. *)
  let var_snapshot =
    if t.max_in_flight > 1 then Some (snapshot_variables t) else None
  in
  let finish result =
    Mutex.lock h.h_mutex;
    h.h_result <- Some result;
    Condition.broadcast h.h_cond;
    Mutex.unlock h.h_mutex;
    with_lock t (fun () ->
        t.in_flight <- t.in_flight - 1;
        Metrics.Gauge.set m_in_flight (float_of_int t.in_flight);
        Hashtbl.remove t.pending h.h_id;
        Condition.broadcast t.admit)
  in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        match run_md ?var_snapshot ~options t fetches with
        | result -> finish (Ok result)
        | exception Run_error f -> finish (Error f)
        | exception e ->
            finish
              (Error
                 (Step_failure.v
                    (Step_failure.Kernel_failed (Printexc.to_string e)))))
      ()
  in
  h

let wait h =
  Mutex.lock h.h_mutex;
  while h.h_result = None do
    Condition.wait h.h_cond h.h_mutex
  done;
  let r = Option.get h.h_result in
  Mutex.unlock h.h_mutex;
  match r with Ok v -> v | Error f -> raise (Run_error f)

let drain t =
  (* Quiesce: block until nothing is in flight. Step failures are the
     issuer's to observe via [wait]; drain only waits. *)
  let rec loop () =
    let live =
      with_lock t (fun () ->
          Hashtbl.fold (fun _ h acc -> h :: acc) t.pending [])
    in
    match live with
    | [] -> ()
    | hs ->
        List.iter
          (fun h ->
            Mutex.lock h.h_mutex;
            while h.h_result = None do
              Condition.wait h.h_cond h.h_mutex
            done;
            Mutex.unlock h.h_mutex)
          hs;
        loop ()
  in
  loop ();
  (* Rendezvous hygiene: retire every step issued since the last drain,
     dropping entries leaked on the shared rendezvous by failed or
     abandoned steps (steps also retire themselves; this sweep catches
     tensors that arrived after their step's own cleanup ran). *)
  match t.remote with
  | None -> ()
  | Some r ->
      let lo, hi =
        with_lock t (fun () ->
            let range = (t.drained_to + 1, t.step_counter) in
            t.drained_to <- t.step_counter;
            range)
      in
      for step_id = lo to hi do
        r.Remote.retire_step ~step_id
      done

(* Serve one step dispatched by a remote chief: compile the identical
   step (the endpoint lists reproduce its cache signature against our
   copy of the graph), execute only the partitions placed on this
   process's devices under the chief's [step_id], and return the fetch
   endpoints our partitions produced. All failure modes come back as
   structured [Error] values — this function never raises. *)
let run_serve t ~step_id ~feeds ~fetches ~targets ~cancel () =
  try
    let feed_eps = List.map fst feeds in
    let fetch_eps = fetches in
    let target_ids = targets in
    let r =
      match t.remote with
      | Some r -> r
      | None ->
          raise
            (run_error
               (Step_failure.Invalid_graph
                  "run_serve on a session without a remote runner"))
    in
    let step = find_or_compile t ~feed_eps ~fetch_eps ~target_ids in
    let feed_vals =
      List.map (fun (e, tensor) -> (e, Value.Tensor tensor)) feeds
    in
    match step with
    | Local { plan; device } ->
        (* the chief decided the whole step lives here *)
        let ours =
          match device with None -> true | Some d -> r.Remote.is_local d
        in
        if not ours then
          Error
            (Step_failure.v
               (Step_failure.Invalid_graph
                  "served step is placed on a device of another task"))
        else
          let resources =
            match device with
            | Some d -> t.resource_router d
            | None -> t.default_resources
          in
          let values =
            Executor.execute plan ~feeds:feed_vals ~fetches:fetch_eps
              ~resources ~rendezvous:r.Remote.rendezvous ~cancel ~seed:t.seed
              ~step_id ()
          in
          Ok (List.combine fetch_eps values)
    | Distributed parts ->
        let my_parts =
          List.filter
            (fun ((p : Partition.partition), _) ->
              r.Remote.is_local p.Partition.device)
            parts
        in
        if my_parts = [] then
          Error
            (Step_failure.v
               (Step_failure.Invalid_graph
                  "no partition of the served step is placed on this task"))
        else begin
          let results = ref [] in
          let errors = ref [] in
          let results_mutex = Mutex.create () in
          let record_failure (f : Step_failure.t) =
            (* shared rendezvous: never aborted — wake our parked
               receivers through the serve token instead *)
            Cancel.cancel cancel ~reason:(Step_failure.to_string f);
            Mutex.lock results_mutex;
            errors := f :: !errors;
            Mutex.unlock results_mutex
          in
          let run_part ((p : Partition.partition), plan) =
            let local_feeds =
              List.filter_map
                (fun ((e : Node.endpoint), v) ->
                  match Partition.find_endpoint p e with
                  | Some local -> Some (local, v)
                  | None -> None)
                feed_vals
            in
            let local_fetches =
              List.filter_map
                (fun e ->
                  match Partition.find_endpoint p e with
                  | Some local -> Some (e, local)
                  | None -> None)
                fetch_eps
            in
            let device = Device.to_string p.Partition.device in
            try
              let vs =
                Executor.execute plan ~feeds:local_feeds
                  ~fetches:(List.map snd local_fetches)
                  ~resources:(t.resource_router p.Partition.device)
                  ~rendezvous:r.Remote.rendezvous ~cancel ~seed:t.seed
                  ~step_id ()
              in
              Mutex.lock results_mutex;
              results :=
                List.map2 (fun (orig, _) v -> (orig, v)) local_fetches vs
                @ !results;
              Mutex.unlock results_mutex
            with
            | Step_failure.Error f ->
                record_failure
                  (if f.Step_failure.device = None then
                     { f with Step_failure.device = Some device }
                   else f)
            | Rendezvous.Aborted reason ->
                record_failure
                  (Step_failure.v ~device
                     (Step_failure.Rendezvous_aborted reason))
            | e ->
                record_failure
                  (Step_failure.v ~device
                     (Step_failure.Kernel_failed (Printexc.to_string e)))
          in
          let threads = List.map (fun p -> Thread.create run_part p) my_parts in
          List.iter Thread.join threads;
          match
            List.stable_sort
              (fun (a : Step_failure.t) b ->
                compare
                  (Step_failure.is_secondary a.Step_failure.cause)
                  (Step_failure.is_secondary b.Step_failure.cause))
              (List.rev !errors)
          with
          | f :: _ -> Error f
          | [] -> Ok !results
        end
  with
  | Run_error f | Step_failure.Error f -> Error f
  | e -> Error (Step_failure.v (Step_failure.Kernel_failed (Printexc.to_string e)))

(* [run] and [run_unit] are thin wrappers over {!run_with_metadata}. *)

let run ?feeds ?targets ?deadline t fetches =
  fst
    (run_with_metadata
       ~options:(Run_options.v ?feeds ?targets ?deadline ())
       t fetches)

let run_unit ?feeds ?deadline t targets =
  ignore (run ?feeds ?deadline ~targets t [])
