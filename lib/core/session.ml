
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
   is the one resolution point: config field > OCTF_SCHEDULER (for the
   scheduler) > built-in default. *)
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

  (* [OCTF_SCHEDULER] is read only when the field is unset. *)
  let of_env c =
    let or_default field default = Some (Option.value field ~default) in
    let scheduler =
      match c.scheduler with
      | Some _ -> c.scheduler
      | None -> Octf_tensor.Env.get Scheduler.env
    in
    {
      c with
      seed = or_default c.seed 42;
      scheduler = or_default scheduler Scheduler.Inline;
      memory_planning = or_default c.memory_planning (Mem_plan.enabled ());
      fusion = or_default c.fusion true;
      quantize = or_default c.quantize false;
      max_in_flight = or_default c.max_in_flight 1;
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

(* A compiled step is a list of parts, one per device it touches. [find]
   maps an endpoint of the session's graph into the part's plan; an
   unpartitioned step is one part over the whole graph, whose [find] is
   the identity. *)
type part = {
  device : Device.t option;
  plan : Executor.plan;
  find : Node.endpoint -> Node.endpoint option;
}

type compiled_step = part list

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
      [
        {
          device = (match devs with [ d ] -> Some d | _ -> None);
          plan = prepare ~graph:t.graph ~nodes ~fed_ids;
          find = Option.some;
        };
      ]
  | _ -> (
      match Partition.partition t.graph ~nodes with
      | Ok parts ->
          List.map
            (fun (p : Partition.partition) ->
              let find = Partition.find_endpoint p in
              let fed_ids =
                List.filter_map
                  (fun e ->
                    Option.map (fun (l : Node.endpoint) -> l.node_id) (find e))
                  feed_eps
              in
              {
                device = Some p.device;
                plan =
                  prepare ~graph:p.subgraph ~nodes:p.node_ids ~fed_ids;
                find;
              })
            parts
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

(* Does this process run parts placed on [device]? Without a runtime
   every device is in-process; an unplaced part runs wherever the step
   does. *)
let is_local t device =
  match (t.remote, device) with
  | Some r, Some d -> r.Remote.is_local d
  | _ -> true

(* The one step runner, for the chief ({!run_with}) and for a worker
   serving a remote chief ({!run_serve}). It runs the step's parts on
   this process's devices, each with its feeds and fetches mapped
   through [find]. With [dispatch] (the chief under a runtime) it also
   sends one Run_step RPC per remote task owning the other parts;
   without it those parts are someone else's. Every local part runs on
   the calling thread, as a fiber of one {!Scheduler.run_parts} that
   parks where its drive loop would wait, so an in-process Send hands
   its value to the Recv's part without a thread switch. Each RPC gets
   a thread of its own, as it blocks on the wire, unless it is all the
   step has. It returns the fetch endpoints this process produced or
   was sent, or the step's root-cause failure.

   Rendezvous: under a runtime every step uses its shared routed one,
   which is never aborted (the abort is sticky and would poison every
   later step); the cancel token wakes the step's parked receivers
   instead. Without a runtime a partitioned step gets a private one,
   which a failure aborts, and a lone part needs none. *)
let execute_parts t step ~step_id ~feeds ~fetches ?tracer ?cancel
    ?var_snapshot ?dispatch () =
  let partitioned = match step with [ _ ] -> false | _ -> true in
  let rendezvous =
    match t.remote with
    | Some r -> Some r.Remote.rendezvous
    | None -> if partitioned then Some (Rendezvous.create ()) else None
  in
  let results = ref [] and errors = ref [] in
  let mutex = Mutex.create () in
  let record_results pairs =
    Mutex.lock mutex;
    results := pairs @ !results;
    Mutex.unlock mutex
  in
  let record_failure (f : Step_failure.t) =
    let msg = Step_failure.to_string f in
    if Option.is_none t.remote then
      Option.iter (fun r -> Rendezvous.abort r ~reason:msg) rendezvous;
    Option.iter (fun c -> Cancel.cancel c ~reason:msg) cancel;
    Mutex.lock mutex;
    errors := f :: !errors;
    Mutex.unlock mutex
  in
  let run_part sync p =
    let feeds =
      List.filter_map
        (fun (e, v) -> Option.map (fun l -> (l, v)) (p.find e))
        feeds
    in
    let fetches =
      List.filter_map (fun e -> Option.map (fun l -> (e, l)) (p.find e)) fetches
    in
    match
      Executor.execute p.plan ~feeds ~fetches:(List.map snd fetches)
        ~resources:
          (match p.device with
          | Some d -> t.resource_router d
          | None -> t.default_resources)
        ?rendezvous ?tracer ?cancel ~seed:t.seed ~step_id ?var_snapshot ~sync
        ()
    with
    | vs -> record_results (List.map2 (fun (e, _) v -> (e, v)) fetches vs)
    | exception e ->
        let device = Option.map Device.to_string p.device in
        record_failure
          (match e with
          | Step_failure.Error f ->
              if f.device = None then { f with device } else f
          | Rendezvous.Aborted reason ->
              Step_failure.v ?device (Step_failure.Rendezvous_aborted reason)
          | e ->
              Step_failure.v ?device
                (Step_failure.Kernel_failed (Printexc.to_string e)))
  in
  let local, remote = List.partition (fun p -> is_local t p.device) step in
  let task_of p = Option.map (fun (d : Device.t) -> (d.job, d.task)) p.device in
  (* A failure the peer did not place (the RPC's own, or the step's
     deadline seen here first) names the task's part when it has one,
     as the same failure would in-process. *)
  let place task (f : Step_failure.t) =
    match List.filter (fun p -> task_of p = Some task) remote with
    | [ { device = Some d; _ } ] when f.device = None ->
        { f with device = Some (Device.to_string d) }
    | _ -> f
  in
  let rpcs =
    match dispatch with
    | None -> []
    | Some call ->
        List.map
          (fun (job, task) () ->
            match call ~job ~task with
            | Ok pairs -> record_results pairs
            | Error f -> record_failure (place (job, task) f))
          (List.sort_uniq compare (List.filter_map task_of remote))
  in
  let on_caller, threaded =
    match (local, rpcs) with
    | [], rpc :: others -> (rpc, others)
    | _ ->
        let sync = Scheduler.sync () in
        ( (fun () ->
            Scheduler.run_parts sync (List.map (fun p () -> run_part sync p) local)),
          rpcs )
  in
  let threads = List.map (fun rpc -> Thread.create rpc ()) threaded in
  Fun.protect ~finally:(fun () -> List.iter Thread.join threads) on_caller;
  (* Scrub entries a partitioned step leaked (sends whose Recv died with
     the step): essential on the long-lived shared rendezvous, keeps the
     pending gauge honest on a private one. A worker leaves this to the
     runtime serving the step. *)
  (if partitioned then
     match (t.remote, dispatch, rendezvous) with
     | Some r, Some _, _ -> r.Remote.retire_step ~step_id
     | None, _, Some r -> ignore (Rendezvous.drop_step r ~step_id)
     | _ -> ());
  (* Prefer the root cause: a part's own failure over the "peer aborted
     me" / "step was cancelled" collateral. *)
  match
    List.stable_sort
      (fun (a : Step_failure.t) b ->
        compare
          (Step_failure.is_secondary a.cause)
          (Step_failure.is_secondary b.cause))
      (List.rev !errors)
  with
  | f :: _ -> Error f
  | [] -> Ok !results

let run_with ?tracer ?deadline ?cancel:parent ?var_snapshot ?(feeds = [])
    ?(targets = []) t fetches =
  let fetches_tagged, fetches, feed_eps, fetch_eps, target_ids =
    normalize_step ~feed_outputs:(List.map fst feeds) ~targets fetches
  in
  let step = find_or_compile t ~feed_eps ~fetch_eps ~target_ids in
  let step_id =
    with_lock t (fun () ->
        t.step_counter <- t.step_counter + 1;
        t.step_counter)
  in
  (* One cancellation token per step: a deadline registers its expiry
     with the timer thread, partitioned and remote steps always carry a
     token so one part's failure wakes peers parked in queue or
     rendezvous waits, and a [parent] token (a pipeline's filler group)
     cancels this step when the whole group is stopped. *)
  let cancel =
    match (deadline, parent, step) with
    | Some d, _, _ -> Some (Cancel.create ?parent ~deadline:d ())
    | None, Some _, _ -> Some (Cancel.create ?parent ())
    | None, None, [ p ] when is_local t p.device -> None
    | None, None, _ -> Some (Cancel.create ())
  in
  (* One Run_step RPC executing [job]/[task]'s parts of this step in its
     own process. The full feed/fetch/target endpoint lists go on the
     wire: the peer compiled the same graph, so the lists both reproduce
     the step signature (hitting its step cache) and let it select the
     subsets its parts own. *)
  let dispatch =
    Option.map
      (fun r ~job ~task ->
        r.Remote.run_partitions ~job ~task ~step_id
          ~feeds:
            (List.map
               (fun (o, tensor) -> (Builder.endpoint_of_output o, tensor))
               feeds)
          ~fetches:fetch_eps ~targets:target_ids ~deadline ~cancel)
      t.remote
  in
  let execute_step () =
    match
      execute_parts t step ~step_id
        ~feeds:(List.map2 (fun e (_, x) -> (e, Value.Tensor x)) feed_eps feeds)
        ~fetches:fetch_eps ?tracer ?cancel ?var_snapshot ?dispatch ()
    with
    | Error f -> raise (Run_error f)
    | Ok pairs ->
        List.map2
          (fun (o : Builder.output) e ->
            let what = o.node.name in
            match List.assoc_opt e pairs with
            | Some v -> value_to_tensor ~what v
            | None ->
                raise
                  (run_error ~node:what
                     (Step_failure.Fetch_failed
                        ("fetch not produced by any partition: " ^ what))))
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
   copy of the graph) and run only its parts placed on this process's
   devices, under the chief's [step_id]. All failure modes come back as
   structured [Error] values — this function never raises. *)
let run_serve t ~step_id ~feeds ~fetches ~targets ~cancel () =
  try
    if Option.is_none t.remote then
      raise (invalid "run_serve on a session without a remote runner");
    let step =
      find_or_compile t ~feed_eps:(List.map fst feeds) ~fetch_eps:fetches
        ~target_ids:targets
    in
    if not (List.exists (fun p -> is_local t p.device) step) then
      raise (invalid "no part of the served step is placed on this task");
    execute_parts t step ~step_id
      ~feeds:(List.map (fun (e, x) -> (e, Value.Tensor x)) feeds)
      ~fetches ~cancel ()
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
