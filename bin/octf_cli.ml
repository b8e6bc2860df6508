(* octf command-line interface.

     dune exec bin/octf_cli.exe -- simulate --workload inception \
       --workers 50 --ps 17 --mode sync --steps 40
     dune exec bin/octf_cli.exe -- train --steps 200 --lr 0.1
     dune exec bin/octf_cli.exe -- trace --out /tmp/step.json

   The paper-evaluation harness itself lives in bench/main.exe; this
   binary exposes the simulator and runtime interactively. *)

open Octf_tensor
open Cmdliner
module B = Octf.Builder
module Sim = Octf_sim.Replica_sim
module Stats = Octf_sim.Stats
module W = Octf_models.Workload
module Lm = Octf_models.Lstm_model

(* ----------------------------- simulate ---------------------------- *)

let workload_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "inception" ] -> Ok (W.inception_v3 ~batch:32)
    | [ "lstm-full" ] -> Ok (Lm.workload ~softmax:Lm.Full ~batch:64 ~unroll:20)
    | [ "lstm-sampled" ] ->
        Ok (Lm.workload ~softmax:(Lm.Sampled 512) ~batch:64 ~unroll:20)
    | [ "scalar" ] -> Ok W.null_scalar
    | [ "dense"; mb ] -> (
        match float_of_string_opt mb with
        | Some mb -> Ok (W.null_dense ~mb)
        | None -> Error (`Msg "dense:<megabytes>"))
    | _ ->
        Error
          (`Msg
            "expected inception | lstm-full | lstm-sampled | scalar | \
             dense:<MB>")
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt w.W.name)

let mode_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "async" ] -> Ok Sim.Async
    | [ "sync" ] -> Ok (Sim.Sync { backup = 0 })
    | [ "backup"; b ] -> (
        match int_of_string_opt b with
        | Some b -> Ok (Sim.Sync { backup = b })
        | None -> Error (`Msg "backup:<n>"))
    | _ -> Error (`Msg "expected async | sync | backup:<n>")
  in
  let print fmt = function
    | Sim.Async -> Format.pp_print_string fmt "async"
    | Sim.Sync { backup = 0 } -> Format.pp_print_string fmt "sync"
    | Sim.Sync { backup } -> Format.fprintf fmt "backup:%d" backup
  in
  Arg.conv (parse, print)

let simulate workload workers ps mode steps seed =
  let cfg =
    {
      (Sim.default ~workload) with
      Sim.num_workers = workers;
      num_ps = ps;
      coordination = mode;
      seed;
    }
  in
  let r = Sim.run cfg ~steps in
  Format.printf "workload:   %a@." W.pp workload;
  Format.printf "cluster:    %d workers, %d PS tasks@." workers ps;
  Format.printf "steps:      %d (%s)@." steps
    (match mode with
    | Sim.Async -> "asynchronous"
    | Sim.Sync { backup = 0 } -> "synchronous"
    | Sim.Sync { backup } -> Printf.sprintf "synchronous, %d backup" backup);
  Format.printf "step time:  median %.1f ms (p10 %.1f, p90 %.1f)@."
    (1000.0 *. r.Sim.summary.Stats.median)
    (1000.0 *. r.Sim.summary.Stats.p10)
    (1000.0 *. r.Sim.summary.Stats.p90);
  Format.printf "throughput: %.0f items/s@." r.Sim.throughput

let simulate_cmd =
  let workload =
    Arg.(
      value
      & opt workload_conv (W.inception_v3 ~batch:32)
      & info [ "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "inception | lstm-full | lstm-sampled | scalar | dense:<MB>")
  in
  let workers =
    Arg.(value & opt int 50 & info [ "workers" ] ~doc:"Worker task count.")
  in
  let ps = Arg.(value & opt int 17 & info [ "ps" ] ~doc:"PS task count.") in
  let mode =
    Arg.(
      value & opt mode_conv Sim.Async
      & info [ "mode" ] ~doc:"async | sync | backup:<n> (Figure 4).")
  in
  let steps =
    Arg.(value & opt int 40 & info [ "steps" ] ~doc:"Steps/rounds to simulate.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate distributed training on the shared-cluster model")
    Term.(const simulate $ workload $ workers $ ps $ mode $ steps $ seed)

(* --------------------------- scheduler ----------------------------- *)

(* Shared by the commands that execute real graphs. Each session flag
   left unset stays [None] in the command's Session.Config, so the
   session resolves it from its OCTF_* variable: either
   `--scheduler pool` or `OCTF_SCHEDULER=pool` enables the domain-pool
   executor. *)
let scheduler_conv =
  let parse s =
    match Octf.Scheduler.policy_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt p ->
        Format.pp_print_string fmt (Octf.Scheduler.policy_to_string p) )

let scheduler_arg =
  Arg.(
    value
    & opt (some scheduler_conv) None
    & info [ "scheduler" ] ~docv:"POLICY"
        ~doc:
          "Executor scheduling policy: $(b,inline) (single-threaded) or \
           $(b,pool) (parallel kernel dispatch on the shared domain pool). \
           Defaults to \\$OCTF_SCHEDULER or inline.")

(* Process-wide intra-op budget for kernel loops; results are
   bit-identical for every value, so this is purely a performance knob. *)
let intra_op_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "intra-op-threads" ] ~docv:"N"
        ~doc:
          "Threads each tensor kernel may shard its loops across (matmul \
           rows, conv patches, elementwise ranges). Defaults to \
           \\$OCTF_INTRA_OP_THREADS or the core count; $(b,1) disables \
           intra-op parallelism.")

(* Pipeline depth for Session.run_async: how many steps may be in
   flight at once. *)
let max_in_flight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-in-flight" ] ~docv:"K"
        ~doc:
          "Training-pipeline depth: up to $(docv) steps execute \
           concurrently, each reading an admission-time snapshot of the \
           variables while updates land in completion order \
           (asynchronous SGD). $(b,1) is the fully synchronous legacy \
           behaviour. Defaults to \\$OCTF_MAX_IN_FLIGHT or 1.")

(* -------------------------- memory planning ------------------------ *)

let memory_planning_arg =
  Arg.(
    value
    & opt (some bool) None
    & info [ "memory-planning" ] ~docv:"BOOL"
        ~doc:
          "Enable or disable the executor's memory planner: lifetime \
           analysis with eager drops, buffer-pool recycling and in-place \
           kernel grants. Fetched results are bit-identical either way. \
           Defaults to \\$OCTF_MEMORY_PLANNING or $(b,true).")

let buffer_pool_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "buffer-pool-mb" ] ~docv:"MB"
        ~doc:
          "Cap in megabytes on the pool that recycles freed tensor \
           backings; $(b,0) disables pooling. Defaults to \
           \\$OCTF_BUFFER_POOL_MB or 256.")

(* ------------------------------ fusion ----------------------------- *)

let fusion_arg =
  Arg.(
    value
    & opt (some bool) None
    & info [ "fusion" ] ~docv:"BOOL"
        ~doc:
          "Enable or disable the elementwise kernel-fusion optimizer \
           pass: chains of pure elementwise operations collapse into \
           single fused kernels that make one pass over memory. Fetched \
           results are bit-identical either way. Defaults to \
           \\$OCTF_FUSION or $(b,true).")

let quantize_arg =
  Arg.(
    value
    & opt (some bool) None
    & info [ "quantize" ] ~docv:"BOOL"
        ~doc:
          "Enable or disable the int8 quantization optimizer pass on \
           frozen inference graphs: eligible MatMul/Conv2D islands run \
           on 8-bit codes with 4x-smaller weight constants (numerics \
           change within one quantization step per tensor). Defaults \
           to \\$OCTF_QUANTIZE or $(b,false).")

(* ------------------------------ faults ----------------------------- *)

let fault_conv =
  let parse s =
    match Octf.Fault_injector.parse s with
    | Ok specs -> Ok specs
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt specs ->
        Format.pp_print_string fmt
          (String.concat ","
             (List.map Octf.Fault_injector.spec_to_string specs)) )

let fault_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "fault" ] ~docv:"SPECS"
        ~doc:
          "Comma-separated fault specs to inject, e.g. kill:ps/0@40, \
           kernel:MatMul@3, flaky:Apply:0.05, drop:grad@2, \
           delay:grad@2:50, slow:reader@0:20 (persistent straggler). \
           Equivalent to OCTF_FAULT.")

let fault_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-seed" ]
        ~doc:"Seed for the flaky-kernel coin (OCTF_FAULT_SEED).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-step deadline in milliseconds: a step that exceeds it            fails with a structured deadline error instead of hanging.")

let deadline_of_ms = Option.map (fun ms -> ms /. 1000.0)

(* ----------------------------- metrics ----------------------------- *)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Dump a snapshot of the process metrics registry at exit. With no \
           $(docv) (or $(docv) = -), print Prometheus text format to stdout; \
           with a path, write the file ($(b,.json) suffix selects the JSON \
           exporter, anything else Prometheus text). Also enables per-kernel \
           timing.")

let stats_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "stats-every" ] ~docv:"N"
        ~doc:
          "During $(b,train), collect per-node step statistics \
           (Run_metadata with collect_stats) every $(docv) steps and log a \
           metrics summary plus the per-op breakdown.")

let dump_metrics = function
  | None -> ()
  | Some "-" -> print_string (Octf.Metrics.to_prometheus Octf.Metrics.default)
  | Some path ->
      let body =
        if Filename.check_suffix path ".json" then
          Octf.Metrics.to_json Octf.Metrics.default
        else Octf.Metrics.to_prometheus Octf.Metrics.default
      in
      let oc = open_out path in
      output_string oc body;
      close_out oc;
      Format.printf "metrics snapshot written to %s@." path

(* --------------------------- Figure 1 model ------------------------ *)

(* The miniature of Figure 1 shared by train, worker and dist-smoke:
   the weight vector lives on a "ps" task, the compute (and the FIFO
   input queue feeding it) on a "worker" task, so every step exercises
   partitioned execution with real Send/Recv rendezvous traffic and
   queue backpressure. In distributed (SPMD) mode every process calls
   this same function, so all of them agree on node ids, placement and
   step-cache signatures — the invariant Octf_net relies on. *)

let figure1_dim = 3
let figure1_true_w = [| 2.0; -3.0; 0.5 |]

type figure1 = {
  fg_builder : B.t;
  fg_store : Octf_nn.Var_store.t;
  fg_w : B.output;  (* read endpoint of the weight variable *)
  fg_x_in : B.output;
  fg_y_in : B.output;
  fg_enqueue : B.output;
  fg_loss : B.output;
  fg_train_op : B.output;
  fg_init : B.output;
  fg_saver : Octf_train.Saver.t;
}

let build_figure1 ~lr () =
  let module Vs = Octf_nn.Var_store in
  let dim = figure1_dim in
  let b = B.create () in
  let store = Vs.create b in
  let w =
    Vs.get store ~device:"/job:ps/task:0" ~init:Octf_nn.Init.zeros ~name:"w"
      [| dim; 1 |]
  in
  (* Input pipeline: feed placeholders into a bounded FIFO queue on the
     worker; the training step dequeues its batch from it. *)
  let x_in = B.placeholder b ~name:"x_in" ~shape:[| 32; dim |] Dtype.F32 in
  let y_in = B.placeholder b ~name:"y_in" ~shape:[| 32; 1 |] Dtype.F32 in
  let enqueue, x, y =
    B.with_device b "/job:worker/task:0" (fun () ->
        let queue =
          B.fifo_queue b ~name:"input" ~capacity:8 ~num_components:2 ()
        in
        let enqueue = B.enqueue b queue [ x_in; y_in ] in
        match B.dequeue b queue ~num_components:2 with
        | [ x; y ] -> (enqueue, x, y)
        | _ -> assert false)
  in
  let loss =
    B.with_device b "/job:worker/task:0" (fun () ->
        Octf_nn.Losses.mse b ~predictions:(B.matmul b x w.Vs.read) ~targets:y)
  in
  let train_op = Octf_train.Optimizer.minimize store ~lr ~loss () in
  (* The init group and the saver's save/restore subgraphs are part of
     the shared graph too: in SPMD mode every process must own them
     (restore ops execute on the ps task), and building them here keeps
     node ids aligned across processes. *)
  let init = Vs.init_op store in
  let saver = Octf_train.Saver.create store in
  {
    fg_builder = b;
    fg_store = store;
    fg_w = w.Vs.read;
    fg_x_in = x_in;
    fg_y_in = y_in;
    fg_enqueue = enqueue;
    fg_loss = loss;
    fg_train_op = train_op;
    fg_init = init;
    fg_saver = saver;
  }

(* ------------------------- distributed cluster --------------------- *)

let cluster_conv =
  let parse s =
    match Octf_net.Runtime.parse_cluster s with
    | Ok entries -> Ok entries
    | Error m -> Error (`Msg m)
  in
  let print fmt entries =
    Format.pp_print_string fmt
      (String.concat ","
         (List.map
            (fun ((j, t), a) ->
              Printf.sprintf "%s:%d=%s:%d" j t a.Octf_net.Runtime.host
                a.Octf_net.Runtime.port)
            entries))
  in
  Arg.conv (parse, print)

let cluster_arg =
  Arg.(
    value
    & opt (some cluster_conv) None
    & info [ "cluster" ] ~docv:"SPEC"
        ~doc:
          "Run distributed over real sockets: comma-separated \
           $(b,job[:task]=host:port) entries (task defaults to 0), e.g. \
           $(b,ps=127.0.0.1:7000,worker=127.0.0.1:7001). Every process of \
           the cluster must be given the $(i,same) spec — each builds the \
           same graph and the spec fixes device order.")

let job_arg ~default =
  Arg.(
    value & opt string default
    & info [ "job" ] ~docv:"JOB" ~doc:"This process's job name.")

let task_arg =
  Arg.(
    value & opt int 0
    & info [ "task" ] ~docv:"N" ~doc:"This process's task index.")

(* The in-process device list implied by a cluster spec. Jobs keep
   their first-appearance order and each job gets max-task-index + 1
   CPU tasks, so identical specs yield identical device lists in every
   process. *)
let octf_cluster_of_entries entries =
  let names =
    List.fold_left
      (fun acc ((j, _), _) -> if List.mem j acc then acc else acc @ [ j ])
      [] entries
  in
  let count j =
    List.fold_left
      (fun m ((j', t), _) -> if j' = j then max m (t + 1) else m)
      0 entries
  in
  Octf.Cluster.create
    ~jobs:(List.map (fun j -> (j, count j, [ Octf.Device.CPU ])) names)

(* ------------------------------ train ------------------------------ *)
let train steps lr scheduler intra_op max_in_flight planning pool_mb fusion
    quantize deadline_ms fault fault_seed metrics stats_every net_cluster job
    task =
  Option.iter Octf_tensor.Buffer_pool.set_limit_mb pool_mb;
  let module Vs = Octf_nn.Var_store in
  let deadline = deadline_of_ms deadline_ms in
  if metrics <> None || stats_every <> None then
    Octf.Metrics.set_kernel_timing true;
  (match fault with
  | Some specs -> Octf.Fault_injector.install ~seed:fault_seed specs
  | None -> Octf.Fault_injector.install_from_env ());
  Fun.protect ~finally:Octf.Fault_injector.reset @@ fun () ->
  let true_w = figure1_true_w in
  let cluster =
    match net_cluster with
    | Some entries -> octf_cluster_of_entries entries
    | None ->
        Octf.Cluster.create
          ~jobs:
            [
              ("ps", 1, [ Octf.Device.CPU ]); ("worker", 1, [ Octf.Device.CPU ]);
            ]
  in
  let fg = build_figure1 ~lr () in
  let b = fg.fg_builder in
  let x_in = fg.fg_x_in
  and y_in = fg.fg_y_in
  and enqueue = fg.fg_enqueue
  and loss = fg.fg_loss
  and train_op = fg.fg_train_op in
  (* In distributed mode this process is the chief: partitions placed
     on peer tasks go out as Run_step RPCs through the runtime. *)
  let rt =
    Option.map
      (fun entries ->
        Octf_net.Runtime.create
          (Octf_net.Runtime.config ~job ~task ~cluster:entries ()))
      net_cluster
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Octf_net.Runtime.shutdown rt)
  @@ fun () ->
  let session =
    Octf.Cluster.session cluster
      ~config:
        (Octf.Session.Config.v ?scheduler ?intra_op_threads:intra_op
           ?memory_planning:planning ?max_in_flight ?fusion ?quantize
           ?remote:(Option.map Octf_net.Runtime.runner rt)
           ())
      (B.graph b)
  in
  Option.iter (fun rt -> Octf_net.Runtime.serve rt ~session) rt;
  let rng = Rng.create 12 in
  let monitor =
    Option.map
      (fun every ->
        Octf_train.Monitor.create ~every
          ~log:(fun line -> Format.printf "%s@." line)
          ())
      stats_every
  in
  let report step l =
    if (step + 1) mod (max 1 (steps / 10)) = 0 then
      Format.printf "step %4d loss %.6f@." (step + 1) (Tensor.flat_get_f l 0)
  in
  let next_batch () =
    Octf_data.Synthetic.regression_batch rng ~batch:32 ~dim:figure1_dim
      ~w:true_w ~bias:0.0 ~noise:0.01
  in
  let fill ?deadline () =
    let xs, ys = next_batch () in
    Octf.Session.run_unit ~feeds:[ (x_in, xs); (y_in, ys) ] ?deadline session
      [ enqueue ]
  in
  let one_step ~step ~deadline =
    fill ?deadline ();
    let collect =
      match monitor with
      | Some m -> Octf_train.Monitor.should_sample m ~step
      | None -> false
    in
    let options =
      Octf.Session.Run_options.v ?deadline ~collect_stats:collect ()
    in
    match
      Octf.Session.run_with_metadata ~options session [ loss; train_op ]
    with
    | [ l; _ ], md ->
        report step l;
        Option.iter
          (fun m -> Octf_train.Monitor.on_step m ~step ~metadata:md ())
          monitor
    | _ -> assert false
  in
  (* Two batches of head start so the queue always has work buffered:
     the depth gauge stays positive for the whole run. *)
  let prefill () =
    for _ = 1 to 2 do
      fill ()
    done
  in
  (if Octf.Fault_injector.active () then begin
     (* Faults armed: run under the supervisor so failed steps recover
        from checkpoints instead of aborting the run. The supervised
        loop stays synchronous — recovery rolls variables back to a
        checkpoint, which only makes sense against a quiesced
        pipeline. *)
     let saver = fg.fg_saver in
     let prefix = Filename.concat (Filename.get_temp_dir_name ()) "octf-train" in
     let sup =
       Octf_train.Supervisor.create ~save_every:(max 1 (steps / 10)) ?deadline
         ~on_event:(function
           | Octf_train.Supervisor.Step_failed (step, f) ->
               Format.printf "step %4d FAILED: %s@." step
                 (Octf.Step_failure.to_string f)
           | Octf_train.Supervisor.Restored (step, path) ->
               Format.printf "restored %s, resuming at step %d@." path step
           | _ -> ())
         ~on_recover:(fun _ ->
           (* Restart any killed task with empty memory; init + restore
              then rebuild its state (§4.3). *)
           List.iter
             (fun (job, task) ->
               Octf.Fault_injector.revive_task ~job ~task;
               Octf.Cluster.restart_task cluster ~job ~task)
             (Octf.Fault_injector.killed_tasks ()))
         ~saver ~prefix session
     in
     let stats =
       Octf_train.Supervisor.run sup ~steps
         ~init:(fun () ->
           Octf.Session.run_unit session [ fg.fg_init ];
           prefill ())
         one_step
     in
     Format.printf "injected faults: %d, restores: %d, checkpoints: %d@."
       (Octf.Fault_injector.injections ())
       stats.Octf_train.Supervisor.restores
       stats.Octf_train.Supervisor.checkpoints
   end
   else begin
     Octf.Session.run_unit session [ fg.fg_init ];
     prefill ();
     let k = Octf.Session.max_in_flight session in
     if k <= 1 then
       for step = 0 to steps - 1 do
         one_step ~step ~deadline
       done
     else begin
       (* Pipelined loop: keep a window of up to K async steps in
          flight; each fill's queue backpressure plus run_async's
          admission control bound the lead the issuer can build. *)
       let inflight = Queue.create () in
       let finish_one () =
         let step, handle = Queue.pop inflight in
         match Octf.Session.wait handle with
         | [ l; _ ], md ->
             report step l;
             Option.iter
               (fun m -> Octf_train.Monitor.on_step m ~step ~metadata:md ())
               monitor
         | _ -> assert false
       in
       for step = 0 to steps - 1 do
         fill ?deadline ();
         let collect =
           match monitor with
           | Some m -> Octf_train.Monitor.should_sample m ~step
           | None -> false
         in
         let options =
           Octf.Session.Run_options.v ?deadline ~collect_stats:collect ()
         in
         Queue.push
           (step, Octf.Session.run_async ~options session [ loss; train_op ])
           inflight;
         if Queue.length inflight >= k then finish_one ()
       done;
       while not (Queue.is_empty inflight) do
         finish_one ()
       done
     end
   end);
  let learned =
    Tensor.to_float_array (List.hd (Octf.Session.run session [ fg.fg_w ]))
  in
  Format.printf "learned w: [%s] (true: [%s])@."
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.3f") learned)))
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.3f") true_w)));
  dump_metrics metrics

let train_cmd =
  let steps =
    Arg.(value & opt int 200 & info [ "steps" ] ~doc:"Training steps.")
  in
  let lr =
    Arg.(value & opt float 0.1 & info [ "lr" ] ~doc:"Learning rate.")
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Train a linear model on an in-process ps/worker cluster with a \
          queued input pipeline (quick sanity run)")
    Term.(
      const train $ steps $ lr $ scheduler_arg $ intra_op_arg
      $ max_in_flight_arg $ memory_planning_arg $ buffer_pool_mb_arg
      $ fusion_arg $ quantize_arg $ deadline_arg $ fault_arg $ fault_seed_arg
      $ metrics_arg
      $ stats_every_arg $ cluster_arg $ job_arg ~default:"worker" $ task_arg)

(* ------------------------------ worker ----------------------------- *)

(* A task server process: build the same Figure-1 graph as the chief,
   attach a session to the network runtime, and serve Run_step RPCs
   until killed. The ps task of the two-process demo runs this. *)
let worker job task entries lr fault fault_seed =
  (match fault with
  | Some specs -> Octf.Fault_injector.install ~seed:fault_seed specs
  | None -> Octf.Fault_injector.install_from_env ());
  let rt =
    Octf_net.Runtime.create
      (Octf_net.Runtime.config ~job ~task ~cluster:entries ())
  in
  let fg = build_figure1 ~lr () in
  let cluster = octf_cluster_of_entries entries in
  let session =
    Octf.Cluster.session cluster
      ~config:
        (Octf.Session.Config.v ~remote:(Octf_net.Runtime.runner rt) ())
      (B.graph fg.fg_builder)
  in
  Octf_net.Runtime.serve rt ~session;
  Format.printf "octf-worker: /job:%s/task:%d serving@." job task;
  while true do
    Thread.delay 3600.0
  done

let worker_cmd =
  let cluster =
    Arg.(
      required
      & opt (some cluster_conv) None
      & info [ "cluster" ] ~docv:"SPEC"
          ~doc:
            "Cluster spec, identical to the chief's: \
             $(b,job[:task]=host:port) entries separated by commas.")
  in
  let lr =
    Arg.(
      value & opt float 0.1
      & info [ "lr" ]
          ~doc:
            "Learning rate — must match the chief's so both processes \
             build the identical graph.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Serve one task of a distributed cluster over TCP (run one per \
          task; the chief is $(b,octf train --cluster ...))")
    Term.(
      const worker $ job_arg ~default:"ps" $ task_arg $ cluster $ lr
      $ fault_arg $ fault_seed_arg)

(* ---------------------------- dist-smoke --------------------------- *)

(* Two real OS processes, real sockets, induced failure, verified
   recovery. The chief (this process, /job:worker/task:0) spawns the ps
   task as a child, trains under the supervisor, and at a trigger step
   either SIGKILLs the child (pskill) or arms a socket-level fault.
   Afterwards it asserts that the failure was observed as a structured
   step error, that recovery ran, and that training still converged. *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let wait_for_port port ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let ok =
      try
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if ok then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      loop ()
    end
  in
  loop ()

let dist_smoke scenario steps lr =
  let module FI = Octf.Fault_injector in
  let module Sup = Octf_train.Supervisor in
  let module Vs = Octf_nn.Var_store in
  let ps_port = free_port () in
  let worker_port = free_port () in
  let spec =
    Printf.sprintf "ps=127.0.0.1:%d,worker=127.0.0.1:%d" ps_port worker_port
  in
  let spawn_ps () =
    let pid =
      Unix.create_process Sys.executable_name
        [|
          Sys.executable_name; "worker"; "--job"; "ps"; "--task"; "0";
          "--cluster"; spec; "--lr"; string_of_float lr;
        |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    if not (wait_for_port ps_port ~timeout:10.0) then begin
      Format.printf "FAIL: ps task never started listening@.";
      exit 1
    end;
    pid
  in
  let ps_pid = ref (spawn_ps ()) in
  let kill_ps () =
    (try Unix.kill !ps_pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] !ps_pid) with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> kill_ps (); FI.reset ())
  @@ fun () ->
  let trigger = max 2 (steps / 4) in
  (* Socket-level faults are armed from the start but fire only from
     the trigger step on (the @step clause), once each. *)
  (match scenario with
  | `Pskill -> ()
  | `Corrupt ->
      FI.install [ FI.Corrupt_frame { pattern = "tensor"; step = trigger } ]
  | `Dropconn ->
      FI.install [ FI.Drop_conn { peer = "ps/0"; step = trigger } ]
  | `Framedelay ->
      FI.install
        [ FI.Delay_frame { pattern = "run_step"; step = trigger; ms = 50.0 } ]);
  let entries =
    match Octf_net.Runtime.parse_cluster spec with
    | Ok e -> e
    | Error m -> failwith m
  in
  let rt =
    Octf_net.Runtime.create
      (Octf_net.Runtime.config ~job:"worker" ~task:0 ~cluster:entries
         ~backoff:
           (Octf.Backoff.policy ~base:0.05 ~multiplier:2.0 ~cap:0.25
              ~jitter:0.25 ())
         ())
  in
  Fun.protect ~finally:(fun () -> Octf_net.Runtime.shutdown rt)
  @@ fun () ->
  let fg = build_figure1 ~lr () in
  let cluster = octf_cluster_of_entries entries in
  let session =
    Octf.Cluster.session cluster
      ~config:
        (Octf.Session.Config.v ~remote:(Octf_net.Runtime.runner rt) ())
      (B.graph fg.fg_builder)
  in
  Octf_net.Runtime.serve rt ~session;
  let rng = Rng.create 12 in
  let fill () =
    let xs, ys =
      Octf_data.Synthetic.regression_batch rng ~batch:32 ~dim:figure1_dim
        ~w:figure1_true_w ~bias:0.0 ~noise:0.01
    in
    Octf.Session.run_unit
      ~feeds:[ (fg.fg_x_in, xs); (fg.fg_y_in, ys) ]
      session [ fg.fg_enqueue ]
  in
  let killed = ref false in
  let saw_network = ref false in
  let saver = fg.fg_saver in
  let prefix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "octf-dist-%d" (Unix.getpid ()))
  in
  let sup =
    Sup.create ~save_every:5 ~max_failures:50 ~backoff:0.05 ~max_backoff:0.5
      ~on_event:(function
        | Sup.Step_failed (step, f) ->
            (match f.Octf.Step_failure.cause with
            | Octf.Step_failure.Network_error _ -> saw_network := true
            | _ -> ());
            Format.printf "step %4d FAILED: %s@." step
              (Octf.Step_failure.to_string f)
        | Sup.Restored (step, path) ->
            Format.printf "restored %s, resuming at step %d@." path step
        | _ -> ())
      ~on_recover:(fun _ ->
        (* A recovering chief first makes sure its ps task is back:
           respawn it if the process died, then wait out the dial
           backoff so init/restore below find a live peer. *)
        (match Unix.waitpid [ Unix.WNOHANG ] !ps_pid with
        | 0, _ -> ()
        | _ ->
            Format.printf "respawning ps task@.";
            ps_pid := spawn_ps ()
        | exception Unix.Unix_error _ -> ps_pid := spawn_ps ());
        Thread.delay 0.3)
      ~saver ~prefix session
  in
  let one_step ~step ~deadline:_ =
    if scenario = `Pskill && step = trigger && not !killed then begin
      killed := true;
      Format.printf "killing ps task (pid %d) at step %d@." !ps_pid step;
      try Unix.kill !ps_pid Sys.sigkill with Unix.Unix_error _ -> ()
    end;
    fill ();
    Octf.Session.run_unit session [ fg.fg_loss; fg.fg_train_op ]
  in
  let stats =
    try
      Sup.run sup ~steps
        ~init:(fun () ->
          Octf.Session.run_unit session [ fg.fg_init ];
          fill ())
        one_step
    with Octf.Session.Run_error f ->
      Format.printf "FAIL: unrecovered step failure: %s@."
        (Octf.Step_failure.to_string f);
      exit 1
  in
  let learned =
    Tensor.to_float_array (List.hd (Octf.Session.run session [ fg.fg_w ]))
  in
  Format.printf "learned w: [%s] (true: [%s])@."
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.3f") learned)))
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.3f") figure1_true_w)));
  Format.printf
    "steps %d, failures %d, restores %d, checkpoints %d, injected %d, \
     network errors seen %b@."
    stats.Sup.steps_completed stats.Sup.failures stats.Sup.restores
    stats.Sup.checkpoints (FI.injections ()) !saw_network;
  let failed = ref false in
  let check what ok =
    if not ok then begin
      failed := true;
      Format.printf "FAIL: %s@." what
    end
  in
  let close =
    Array.for_all2
      (fun a b -> Float.abs (a -. b) < 0.3)
      learned figure1_true_w
  in
  check "training converged" close;
  (match scenario with
  | `Pskill ->
      check "ps kill surfaced as a network step failure" !saw_network;
      check "state was restored from a checkpoint" (stats.Sup.restores >= 1)
  | `Corrupt | `Dropconn ->
      check "fault was injected" (FI.injections () >= 1);
      check "fault surfaced as a step failure" (stats.Sup.failures >= 1)
  | `Framedelay -> check "fault was injected" (FI.injections () >= 1));
  if !failed then exit 1;
  Format.printf "PASS@."

let dist_smoke_cmd =
  let scenario =
    Arg.(
      value
      & opt
          (enum
             [
               ("pskill", `Pskill); ("corrupt", `Corrupt);
               ("dropconn", `Dropconn); ("framedelay", `Framedelay);
             ])
          `Pskill
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "$(b,pskill) (SIGKILL the ps task mid-training, respawn, \
             restore), $(b,corrupt) (flip a bit in a tensor frame), \
             $(b,dropconn) (sever the ps connection), $(b,framedelay) \
             (delay an RPC frame).")
  in
  let steps =
    Arg.(value & opt int 60 & info [ "steps" ] ~doc:"Training steps.")
  in
  let lr =
    Arg.(value & opt float 0.1 & info [ "lr" ] ~doc:"Learning rate.")
  in
  Cmd.v
    (Cmd.info "dist-smoke"
       ~doc:
         "Two-process recovery demo: train over TCP, induce a failure, \
          verify structured errors, reconnect and checkpoint recovery")
    Term.(const dist_smoke $ scenario $ steps $ lr)

(* --------------------------- fault-smoke --------------------------- *)

(* Determinism smoke for the fault injector: the same seed must fire the
   same faults; a different seed should (almost surely) differ. Run in
   `make ci`. *)
let fault_smoke seed steps scheduler intra_op =
  let module Vs = Octf_nn.Var_store in
  let run_once ~seed =
    Octf.Fault_injector.install ~seed
      [ Octf.Fault_injector.Flaky_kernel { pattern = "MatMul"; prob = 0.3 } ];
    Fun.protect ~finally:Octf.Fault_injector.reset @@ fun () ->
    let b = B.create () in
    let store = Vs.create b in
    let x = B.const b (Tensor.ones Dtype.F32 [| 4; 4 |]) in
    let w = Vs.get store ~init:Octf_nn.Init.zeros ~name:"w" [| 4; 4 |] in
    let out = B.reduce_sum b (B.matmul b x w.Vs.read) in
    let session =
      Octf.Session.create
        ~config:
          (Octf.Session.Config.v ?scheduler ?intra_op_threads:intra_op ())
        (B.graph b)
    in
    Octf.Session.run_unit session [ Vs.init_op store ];
    let failures = ref 0 in
    for _ = 1 to steps do
      match Octf.Session.run session [ out ] with
      | _ -> ()
      | exception Octf.Session.Run_error f ->
          (match f.Octf.Step_failure.cause with
          | Octf.Step_failure.Fault_injected _ -> incr failures
          | c ->
              Format.printf "unexpected failure: %s@."
                (Octf.Step_failure.cause_message c);
              exit 1)
    done;
    (!failures, Octf.Fault_injector.injections ())
  in
  let a = run_once ~seed in
  let b = run_once ~seed in
  let c = run_once ~seed:(seed + 1) in
  Format.printf "seed %d: %d/%d steps hit (twice: %b); seed %d: %d hit@." seed
    (fst a) steps (a = b) (seed + 1) (fst c);
  if a <> b then begin
    Format.printf "FAIL: same seed produced different fault sequences@.";
    exit 1
  end;
  if fst a = 0 then begin
    Format.printf "FAIL: flaky spec with prob 0.3 never fired in %d steps@."
      steps;
    exit 1
  end;
  Format.printf "fault injector is deterministic@."

let fault_smoke_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Injector seed.")
  in
  let steps =
    Arg.(value & opt int 64 & info [ "steps" ] ~doc:"Steps per run.")
  in
  Cmd.v
    (Cmd.info "fault-smoke"
       ~doc:"Check that seeded fault injection is deterministic")
    Term.(const fault_smoke $ seed $ steps $ scheduler_arg $ intra_op_arg)

(* ------------------------------ serve ------------------------------ *)

(* Inference serving (ISSUE 8): train a model briefly, freeze it
   (variables folded to constants, graph pruned to the inference
   subgraph), then drive the micro-batching server with concurrent
   client threads and report throughput and latency percentiles. *)

module Serving = Octf_serving.Serving

type serve_model = {
  sm_name : string;
  sm_session : Octf.Session.t;  (* trained live session *)
  sm_inputs : B.output list;
  sm_outputs : B.output list;
  sm_example : Rng.t -> Tensor.t list;  (* one per-example request *)
}

let serve_mnist_cnn ~train_steps ~config =
  let module Vs = Octf_nn.Var_store in
  let module L = Octf_nn.Layers in
  let classes = 4 and image_size = 12 and batch = 16 in
  let b = B.create () in
  let store = Vs.create b in
  (* Direct placeholders (no queue pipeline): the serving path feeds
     stacked request tensors straight into the frozen step. *)
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let labels = B.placeholder b ~name:"labels" Dtype.I32 in
  let conv1 =
    L.conv2d store ~activation:`Relu ~name:"conv1" ~in_channels:1
      ~out_channels:8 ~ksize:(3, 3) pixels
  in
  let pool1 = L.max_pool2d b ~ksize:(2, 2) conv1 in
  let conv2 =
    L.conv2d store ~activation:`Relu ~name:"conv2" ~in_channels:8
      ~out_channels:16 ~ksize:(3, 3) pool1
  in
  let pool2 = L.max_pool2d b ~ksize:(2, 2) conv2 in
  let side = image_size / 4 in
  let flat = L.flatten b ~features:(side * side * 16) pool2 in
  let hidden =
    L.dense store ~activation:`Relu ~name:"fc1"
      ~in_dim:(side * side * 16)
      ~out_dim:32 flat
  in
  let logits = L.dense store ~name:"logits" ~in_dim:32 ~out_dim:classes hidden in
  let loss =
    Octf_nn.Losses.sparse_softmax_cross_entropy_mean b ~num_classes:classes
      ~logits ~labels
  in
  let train_op =
    Octf_train.Optimizer.minimize store
      ~algorithm:Octf_train.Optimizer.adam_default ~lr:0.003 ~loss ()
  in
  let session = Octf.Session.create ~config (B.graph b) in
  Octf.Session.run_unit session [ Vs.init_op store ];
  let rng = Rng.create 5 in
  for _ = 1 to train_steps do
    let imgs =
      Octf_data.Synthetic.image_batch rng ~batch ~size:image_size ~channels:1
        ~classes
    in
    Octf.Session.run_unit
      ~feeds:
        [
          (pixels, imgs.Octf_data.Synthetic.pixels);
          (labels, imgs.Octf_data.Synthetic.labels);
        ]
      session [ train_op ]
  done;
  let example rng =
    let imgs =
      Octf_data.Synthetic.image_batch rng ~batch:1 ~size:image_size ~channels:1
        ~classes
    in
    [
      Tensor.reshape imgs.Octf_data.Synthetic.pixels
        [| image_size; image_size; 1 |];
    ]
  in
  {
    sm_name = "mnist-cnn";
    sm_session = session;
    sm_inputs = [ pixels ];
    sm_outputs = [ logits ];
    sm_example = example;
  }

let serve_lstm ~train_steps ~config =
  let module Vs = Octf_nn.Var_store in
  let units = 64 and input_dim = 32 and batch = 16 in
  let b = B.create () in
  let store = Vs.create b in
  let cell = Octf_nn.Lstm.cell store ~name:"cell" ~input_dim ~units in
  (* One recurrence step as the served computation; the request carries
     the input and the running (h, c) state — a three-input signature. *)
  let x = B.placeholder b ~name:"x" Dtype.F32 in
  let h = B.placeholder b ~name:"h" Dtype.F32 in
  let c = B.placeholder b ~name:"c" Dtype.F32 in
  let h', c' = Octf_nn.Lstm.step cell b ~x ~h ~c in
  let loss = B.reduce_mean b (B.square b h') in
  let train_op = Octf_train.Optimizer.minimize store ~lr:0.05 ~loss () in
  let session = Octf.Session.create ~config (B.graph b) in
  Octf.Session.run_unit session [ Vs.init_op store ];
  let rng = Rng.create 7 in
  for _ = 1 to train_steps do
    let xs = Tensor.uniform rng [| batch; input_dim |] ~lo:(-1.0) ~hi:1.0 in
    let zeros = Tensor.zeros Dtype.F32 [| batch; units |] in
    Octf.Session.run_unit
      ~feeds:[ (x, xs); (h, zeros); (c, zeros) ]
      session [ train_op ]
  done;
  let example rng =
    [
      Tensor.uniform rng [| input_dim |] ~lo:(-1.0) ~hi:1.0;
      Tensor.zeros Dtype.F32 [| units |];
      Tensor.zeros Dtype.F32 [| units |];
    ]
  in
  {
    sm_name = "lstm";
    sm_session = session;
    sm_inputs = [ x; h; c ];
    sm_outputs = [ h'; c' ];
    sm_example = example;
  }

let percentile sorted p =
  if Array.length sorted = 0 then nan
  else
    sorted.(min
              (Array.length sorted - 1)
              (int_of_float (p *. float_of_int (Array.length sorted))))

let serve model train_steps clients requests max_batch max_delay_ms
    queue_capacity deadline_ms assert_batched scheduler intra_op planning
    pool_mb quantize metrics =
  Option.iter Octf_tensor.Buffer_pool.set_limit_mb pool_mb;
  if metrics <> None then Octf.Metrics.set_kernel_timing true;
  let config =
    Octf.Session.Config.v ?scheduler ?intra_op_threads:intra_op
      ?memory_planning:planning ()
  in
  let sm =
    match model with
    | `Mnist_cnn -> serve_mnist_cnn ~train_steps ~config
    | `Lstm -> serve_lstm ~train_steps ~config
  in
  let frozen =
    Serving.freeze_session ~config ?quantize ~inputs:sm.sm_inputs
      ~outputs:sm.sm_outputs sm.sm_session
  in
  let total = Octf.Graph.node_count (Octf.Session.graph sm.sm_session) in
  let kept =
    Serving.inference_node_count frozen ~inputs:sm.sm_inputs
      ~outputs:sm.sm_outputs
  in
  Format.printf "model: %s — frozen inference subgraph: %d of %d nodes@."
    sm.sm_name kept total;
  let server =
    Serving.create ~name:sm.sm_name ~max_batch_size:max_batch
      ~max_queue_delay:(max_delay_ms /. 1000.0)
      ~queue_capacity
      ?default_deadline:(deadline_of_ms deadline_ms)
      ~session:frozen ~inputs:sm.sm_inputs ~outputs:sm.sm_outputs ()
  in
  let latencies = Array.make_matrix clients requests nan in
  let served = Array.make clients 0
  and shed = Array.make clients 0
  and failed = Array.make clients 0 in
  let t0 = Unix.gettimeofday () in
  let client ci =
    let rng = Rng.create (100 + ci) in
    for ri = 0 to requests - 1 do
      let s = Unix.gettimeofday () in
      match Serving.infer server (sm.sm_example rng) with
      | Ok _ ->
          latencies.(ci).(ri) <- Unix.gettimeofday () -. s;
          served.(ci) <- served.(ci) + 1
      | Error { Octf.Step_failure.cause = Octf.Step_failure.Overloaded _; _ }
        ->
          shed.(ci) <- shed.(ci) + 1;
          (* back off briefly instead of hammering a shedding server *)
          Thread.delay 0.002
      | Error _ -> failed.(ci) <- failed.(ci) + 1
    done
  in
  let threads = List.init clients (fun ci -> Thread.create client ci) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let ok = Array.fold_left ( + ) 0 served in
  let lat =
    Array.of_list
      (List.filter
         (fun l -> not (Float.is_nan l))
         (List.concat_map Array.to_list (Array.to_list latencies)))
  in
  Array.sort compare lat;
  let stats = Serving.stats server in
  Serving.shutdown server;
  Format.printf "clients: %d, requests/client: %d@." clients requests;
  Format.printf "served %d/%d, shed %d, failed %d@." ok (clients * requests)
    (Array.fold_left ( + ) 0 shed)
    (Array.fold_left ( + ) 0 failed);
  Format.printf "throughput: %.0f req/s@." (float_of_int ok /. wall);
  Format.printf "latency: p50 %.1f ms, p99 %.1f ms@."
    (1000.0 *. percentile lat 0.50)
    (1000.0 *. percentile lat 0.99);
  Format.printf "batches: %d (mean %.1f, max %d)@." stats.Serving.batches
    (if stats.Serving.batches = 0 then 0.0
     else float_of_int stats.Serving.served /. float_of_int stats.Serving.batches)
    stats.Serving.max_batch;
  dump_metrics metrics;
  if assert_batched && stats.Serving.max_batch < 2 then begin
    Format.printf "FAIL: no request coalescing happened@.";
    exit 1
  end;
  if ok = 0 then begin
    Format.printf "FAIL: no request was served@.";
    exit 1
  end

let serve_cmd =
  let model =
    Arg.(
      value
      & opt (enum [ ("mnist-cnn", `Mnist_cnn); ("lstm", `Lstm) ]) `Mnist_cnn
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "$(b,mnist-cnn) (convnet classifier, one image per request) or \
             $(b,lstm) (one recurrence step; each request carries x, h, c).")
  in
  let train_steps =
    Arg.(
      value & opt int 30
      & info [ "train-steps" ]
          ~doc:"Training steps before the model is frozen.")
  in
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~doc:"Concurrent client threads.")
  in
  let requests =
    Arg.(
      value & opt int 40
      & info [ "requests" ] ~doc:"Requests issued by each client.")
  in
  let max_batch =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ]
          ~doc:
            "Micro-batch size cap; $(b,1) disables coalescing (the \
             baseline the bench compares against).")
  in
  let max_delay_ms =
    Arg.(
      value & opt float 2.0
      & info [ "max-delay-ms" ]
          ~doc:
            "Longest a queued request may wait for batch-mates before \
             its batch is dispatched anyway.")
  in
  let queue_capacity =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ]
          ~doc:
            "Admission high-watermark: submits beyond this many queued \
             requests are shed with a structured Overloaded rejection.")
  in
  let assert_batched =
    Arg.(
      value & flag
      & info [ "assert-batched" ]
          ~doc:
            "Exit non-zero unless at least one dispatched batch \
             coalesced two or more requests (used by $(b,make \
             serving-smoke)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Freeze a briefly-trained model and serve it: concurrent clients, \
          dynamic micro-batching, deadlines and load shedding")
    Term.(
      const serve $ model $ train_steps $ clients $ requests $ max_batch
      $ max_delay_ms $ queue_capacity $ deadline_arg $ assert_batched
      $ scheduler_arg $ intra_op_arg $ memory_planning_arg
      $ buffer_pool_mb_arg $ quantize_arg $ metrics_arg)

(* ------------------------------ trace ------------------------------ *)

let trace out scheduler intra_op planning pool_mb fusion metrics =
  Option.iter Octf_tensor.Buffer_pool.set_limit_mb pool_mb;
  let module Vs = Octf_nn.Var_store in
  if metrics <> None then Octf.Metrics.set_kernel_timing true;
  let b = B.create () in
  let store = Vs.create b in
  let x = B.const b (Tensor.ones Dtype.F32 [| 8; 16 |]) in
  let h =
    Octf_nn.Layers.dense store ~activation:`Relu ~name:"fc1" ~in_dim:16
      ~out_dim:32 x
  in
  let logits =
    Octf_nn.Layers.dense store ~name:"fc2" ~in_dim:32 ~out_dim:10 h
  in
  let loss = Octf.Builder.reduce_mean b (Octf.Builder.square b logits) in
  let train_op = Octf_train.Optimizer.minimize store ~lr:0.01 ~loss () in
  let session =
    Octf.Session.create
      ~config:
        (Octf.Session.Config.v ?scheduler ?intra_op_threads:intra_op
           ?memory_planning:planning ?fusion ())
      (B.graph b)
  in
  Octf.Session.run_unit session [ Vs.init_op store ];
  let _, md =
    Octf.Session.run_with_metadata
      ~options:(Octf.Session.Run_options.v ~trace:true ~collect_stats:true ())
      session [ loss; train_op ]
  in
  let tracer = Option.get md.Octf.Session.Run_metadata.tracer in
  Format.printf "%a" Octf.Tracer.pp_summary tracer;
  (match md.Octf.Session.Run_metadata.step_stats with
  | Some stats ->
      Format.printf "%a" Octf.Step_stats.pp_summary stats
  | None -> ());
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Octf.Tracer.to_chrome_trace tracer);
      close_out oc;
      Format.printf "chrome trace written to %s (load in about://tracing)@."
        path);
  dump_metrics metrics

let trace_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write Chrome-trace JSON here.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Profile one training step and print a per-op kernel summary")
    Term.(
      const trace $ out $ scheduler_arg $ intra_op_arg $ memory_planning_arg
      $ buffer_pool_mb_arg $ fusion_arg $ metrics_arg)

let () =
  let info =
    Cmd.info "octf" ~version:"1.0"
      ~doc:"OCaml reproduction of TensorFlow (OSDI 2016)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd; train_cmd; serve_cmd; trace_cmd; fault_smoke_cmd;
            worker_cmd; dist_smoke_cmd;
          ]))
