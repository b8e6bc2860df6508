(* Fault injection, deadlines, cancellation and checkpoint recovery
   (§4.3–4.4). Every test that arms the injector disarms it in a
   [Fun.protect] finally so a failure cannot poison later suites. *)

open Octf_tensor
open Octf
module B = Builder
module F = Fault_injector
module Vs = Octf_nn.Var_store

let scalar t = Tensor.flat_get_f t 0

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_faults ?seed specs f =
  F.install ?seed specs;
  Fun.protect ~finally:F.reset f

let fresh_prefix tag =
  let dir = Filename.temp_file ("octf-" ^ tag) "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Filename.concat dir "model"

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let test_spec_parsing () =
  let roundtrip s =
    match F.parse_spec s with
    | Ok spec -> Alcotest.(check string) s s (F.spec_to_string spec)
    | Error e -> Alcotest.fail e
  in
  roundtrip "kill:ps/0@40";
  roundtrip "kernel:MatMul@3";
  roundtrip "flaky:Apply:0.05";
  roundtrip "drop:grad@2";
  roundtrip "delay:grad@2:50";
  roundtrip "slow:reader@0:20";
  (match F.parse "kill:ps/0@1,flaky:MatMul:0.5" with
  | Ok [ F.Kill_task { job = "ps"; task = 0; step = 1 }; F.Flaky_kernel _ ] ->
      ()
  | Ok _ -> Alcotest.fail "wrong specs"
  | Error e -> Alcotest.fail e);
  match F.parse_spec "kill:nowhere" with
  | Ok _ -> Alcotest.fail "bad spec accepted"
  | Error e -> Alcotest.(check bool) "mentions grammar" true (contains e "kill:")

(* ------------------------------------------------------------------ *)
(* Injected kernel faults surface as structured errors                 *)
(* ------------------------------------------------------------------ *)

let test_kernel_fault_structured () =
  with_faults [ F.Fail_kernel { pattern = "MatMul"; step = 0 } ] @@ fun () ->
  let b = B.create () in
  let a = B.const b (Tensor.ones Dtype.F32 [| 2; 2 |]) in
  let m = B.matmul b a a in
  let s = Session.create (B.graph b) in
  (match Session.run s [ m ] with
  | _ -> Alcotest.fail "expected injected fault"
  | exception Session.Run_error f -> (
      (match f.Step_failure.cause with
      | Step_failure.Fault_injected _ -> ()
      | c ->
          Alcotest.failf "expected Fault_injected, got %s"
            (Step_failure.cause_message c));
      Alcotest.(check bool) "names the node" true (f.Step_failure.node <> None)));
  Alcotest.(check int) "counted" 1 (F.injections ());
  (* One-shot: the retry succeeds. *)
  Alcotest.(check (float 0.)) "retry succeeds" 2.0
    (scalar (List.hd (Session.run s [ m ])))

let test_flaky_determinism () =
  let count ~seed =
    with_faults ~seed [ F.Flaky_kernel { pattern = "MatMul"; prob = 0.3 } ]
    @@ fun () ->
    let b = B.create () in
    let a = B.const b (Tensor.ones Dtype.F32 [| 2; 2 |]) in
    let m = B.matmul b a a in
    let s = Session.create (B.graph b) in
    for _ = 1 to 40 do
      try ignore (Session.run s [ m ]) with Session.Run_error _ -> ()
    done;
    F.injections ()
  in
  let a = count ~seed:7 in
  Alcotest.(check bool) "some faults fired" true (a > 0 && a < 40);
  Alcotest.(check int) "same seed, same faults" a (count ~seed:7)

(* ------------------------------------------------------------------ *)
(* Rendezvous: duplicate send, abort, deadline                         *)
(* ------------------------------------------------------------------ *)

let test_duplicate_send_structured () =
  let r = Rendezvous.create () in
  let v = Value.Tensor (Tensor.scalar_f 1.0) in
  Rendezvous.send r ~key:"a;b;t" v;
  match Rendezvous.send r ~key:"a;b;t" v with
  | () -> Alcotest.fail "duplicate send accepted"
  | exception Step_failure.Error f -> (
      match f.Step_failure.cause with
      | Step_failure.Duplicate_send k -> Alcotest.(check string) "key" "a;b;t" k
      | c ->
          Alcotest.failf "expected Duplicate_send, got %s"
            (Step_failure.cause_message c))

let test_recv_after_abort () =
  let r = Rendezvous.create () in
  Rendezvous.abort r ~reason:"peer died";
  match Rendezvous.recv r ~key:"k" with
  | _ -> Alcotest.fail "recv succeeded after abort"
  | exception Rendezvous.Aborted reason ->
      Alcotest.(check string) "reason" "peer died" reason

let test_abort_wakes_blocked_recv () =
  let r = Rendezvous.create () in
  let result = ref `Pending in
  let th =
    Thread.create
      (fun () ->
        match Rendezvous.recv r ~key:"never" with
        | _ -> result := `Value
        | exception Rendezvous.Aborted _ -> result := `Aborted)
      ()
  in
  Thread.delay 0.05;
  Rendezvous.abort r ~reason:"test";
  Thread.join th;
  Alcotest.(check bool) "woken with Aborted" true (!result = `Aborted)

let test_recv_deadline () =
  let r = Rendezvous.create () in
  let cancel = Cancel.create ~deadline:0.05 () in
  Fun.protect ~finally:(fun () -> Cancel.complete cancel) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  match Rendezvous.recv ~cancel r ~key:"never" with
  | _ -> Alcotest.fail "recv produced a value"
  | exception Step_failure.Error f ->
      (match f.Step_failure.cause with
      | Step_failure.Deadline_exceeded _ -> ()
      | c ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (Step_failure.cause_message c));
      Alcotest.(check bool) "woke promptly" true
        (Unix.gettimeofday () -. t0 < 2.0)

(* ------------------------------------------------------------------ *)
(* Queues: cancellation and close wake blocked waiters                 *)
(* ------------------------------------------------------------------ *)

let test_queue_cancel_wakes_dequeue () =
  let q =
    Queue_impl.create ~name:"q" ~capacity:2 ~num_components:1 ()
  in
  let cancel = Cancel.create () in
  let result = ref `Pending in
  let th =
    Thread.create
      (fun () ->
        match Queue_impl.dequeue ~cancel q with
        | _ -> result := `Value
        | exception Step_failure.Error _ -> result := `Cancelled)
      ()
  in
  Thread.delay 0.05;
  Cancel.cancel cancel ~reason:"peer failed";
  Thread.join th;
  Alcotest.(check bool) "dequeue woken" true (!result = `Cancelled)

let test_queue_cancel_wakes_enqueue () =
  let q =
    Queue_impl.create ~name:"q" ~capacity:1 ~num_components:1 ()
  in
  Queue_impl.enqueue q [| Tensor.scalar_f 0.0 |];
  let cancel = Cancel.create ~deadline:0.05 () in
  Fun.protect ~finally:(fun () -> Cancel.complete cancel) @@ fun () ->
  match Queue_impl.enqueue ~cancel q [| Tensor.scalar_f 1.0 |] with
  | () -> Alcotest.fail "enqueue succeeded on a full queue"
  | exception Step_failure.Error f -> (
      match f.Step_failure.cause with
      | Step_failure.Deadline_exceeded _ -> ()
      | c ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (Step_failure.cause_message c))

(* Regression: a waiter that observes deadline expiry synchronously
   ([Cancel.check] polled inside the queue's critical section) must not
   fire wakers from its own thread — its registered waker relocks the
   queue mutex it already holds. It only sets the cause; the watchdog
   fires the wakers, including for peers parked on other queues. *)
let test_sync_deadline_poll_in_queue_wait () =
  let q1 = Queue_impl.create ~name:"q1" ~capacity:1 ~num_components:1 () in
  let q2 = Queue_impl.create ~name:"q2" ~capacity:1 ~num_components:1 () in
  (* Deterministic half: the deadline has already lapsed when the
     dequeue takes the queue lock, so the very first poll detects it. *)
  let expired = Cancel.create ~deadline:0.0 () in
  Fun.protect ~finally:(fun () -> Cancel.complete expired) @@ fun () ->
  (match Queue_impl.dequeue ~cancel:expired q1 with
  | _ -> Alcotest.fail "dequeue on empty queue produced a value"
  | exception Step_failure.Error f -> (
      match f.Step_failure.cause with
      | Step_failure.Deadline_exceeded _ -> ()
      | c ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (Step_failure.cause_message c)));
  (* Racy half: a peer parks on q2 before the deadline lapses; the main
     thread polls on q1 right around expiry, racing the watchdog for
     detection. Whoever wins, neither thread may crash or stay parked. *)
  let cancel = Cancel.create ~deadline:0.05 () in
  Fun.protect ~finally:(fun () -> Cancel.complete cancel) @@ fun () ->
  let peer_result = ref `Pending in
  let peer =
    Thread.create
      (fun () ->
        match Queue_impl.dequeue ~cancel q2 with
        | _ -> peer_result := `Value
        | exception Step_failure.Error f ->
            peer_result := `Failure f.Step_failure.cause
        | exception e -> peer_result := `Other (Printexc.to_string e))
      ()
  in
  Thread.delay 0.05;
  (match Queue_impl.dequeue ~cancel q1 with
  | _ -> Alcotest.fail "dequeue on empty queue produced a value"
  | exception Step_failure.Error f -> (
      match f.Step_failure.cause with
      | Step_failure.Deadline_exceeded _ -> ()
      | c ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (Step_failure.cause_message c)));
  Thread.join peer;
  match !peer_result with
  | `Failure (Step_failure.Deadline_exceeded _) -> ()
  | `Value -> Alcotest.fail "peer dequeue produced a value"
  | `Pending -> Alcotest.fail "peer never woke"
  | `Failure c ->
      Alcotest.failf "peer: expected Deadline_exceeded, got %s"
        (Step_failure.cause_message c)
  | `Other e -> Alcotest.failf "peer raised %s" e

let test_close_wakes_all_waiters () =
  let q =
    Queue_impl.create ~name:"q" ~capacity:4 ~num_components:1 ()
  in
  let woken = Atomic.make 0 in
  let threads =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            match Queue_impl.dequeue q with
            | _ -> ()
            | exception Queue_impl.Closed _ -> Atomic.incr woken)
          ())
  in
  Thread.delay 0.05;
  Queue_impl.close q;
  List.iter Thread.join threads;
  Alcotest.(check int) "all dequeue waiters woken" 3 (Atomic.get woken)

let test_dequeue_many_requeues_on_close () =
  let q =
    Queue_impl.create ~name:"q" ~capacity:8 ~num_components:1 ()
  in
  Queue_impl.enqueue q [| Tensor.scalar_f 1.0 |];
  Queue_impl.enqueue q [| Tensor.scalar_f 2.0 |];
  let result = ref `Pending in
  let th =
    Thread.create
      (fun () ->
        match Queue_impl.dequeue_many q 4 with
        | _ -> result := `Value
        | exception Queue_impl.Closed _ -> result := `Closed)
      ()
  in
  Thread.delay 0.05;
  Queue_impl.close q;
  Thread.join th;
  Alcotest.(check bool) "dequeue_many observed close" true (!result = `Closed);
  (* The two taken elements went back: a failed step loses no data. *)
  Alcotest.(check int) "elements requeued" 2 (Queue_impl.size q);
  Alcotest.(check (float 0.)) "order preserved" 1.0
    (scalar (Queue_impl.dequeue q).(0))

(* ------------------------------------------------------------------ *)
(* Deadlines on whole steps, cyclic graphs, lost sends                 *)
(* ------------------------------------------------------------------ *)

let infinite_loop_graph () =
  let b = B.create () in
  let i0 = B.const_f b 0.0 in
  let limit = B.const_f b 1e18 in
  let results =
    B.while_loop b ~invariants:[ limit ]
      ~cond:(fun b vars ->
        match vars with
        | [ i; lim ] -> B.less b i lim
        | _ -> assert false)
      ~body:(fun b vars ->
        match vars with
        | [ i; _lim ] -> [ B.add b i (B.ones_like b i) ]
        | _ -> assert false)
      [ i0 ]
  in
  (b, List.hd results)

let check_deadline_on_cyclic scheduler () =
  let b, out = infinite_loop_graph () in
  let s =
    Session.create
      ~config:(Session.Config.v ~scheduler ~passes:[] ())
      (B.graph b)
  in
  let t0 = Unix.gettimeofday () in
  match Session.run ~deadline:0.15 s [ out ] with
  | _ -> Alcotest.fail "unbounded loop terminated"
  | exception Session.Run_error f ->
      (match f.Step_failure.cause with
      | Step_failure.Deadline_exceeded budget ->
          Alcotest.(check (float 1e-9)) "budget reported" 0.15 budget
      | c ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (Step_failure.cause_message c));
      Alcotest.(check bool) "failed promptly, not hung" true
        (Unix.gettimeofday () -. t0 < 5.0)

let test_dropped_send_rescued_by_deadline () =
  let c =
    Cluster.create
      ~jobs:[ ("ps", 1, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ]
  in
  let b = B.create () in
  let w =
    B.variable b ~name:"w" ~device:"/job:ps/task:0" ~dtype:Dtype.F32
      ~shape:[||] ()
  in
  let init = B.assign b w (B.const_f b 3.0) in
  let r = B.read b w in
  let total =
    B.with_device b "/job:worker/task:0" (fun () ->
        B.add b r (B.const_f b 1.0))
  in
  let s = Cluster.session c (B.graph b) in
  Session.run_unit s [ init ];
  (* Swallow the first cross-task send: the worker's Recv never fires
     and only the deadline rescues the step. *)
  with_faults [ F.Drop_send { pattern = ";"; step = 0 } ] @@ fun () ->
  (match Session.run ~deadline:0.2 s [ total ] with
  | _ -> Alcotest.fail "step succeeded despite dropped send"
  | exception Session.Run_error f -> (
      match f.Step_failure.cause with
      | Step_failure.Deadline_exceeded _ -> ()
      | c ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (Step_failure.cause_message c)));
  (* The drop was one-shot; the session is reusable afterwards. *)
  Alcotest.(check (float 0.)) "next step delivers" 4.0
    (scalar (List.hd (Session.run s [ total ])))

(* ------------------------------------------------------------------ *)
(* Pipelined steps against a persistent straggler                      *)
(* ------------------------------------------------------------------ *)

(* A slow:<pattern> spec makes every matching kernel a straggler. With
   K = 4 steps in flight the straggles overlap, so a per-step deadline
   that comfortably covers one straggle passes for all steps, the
   fetches stay exact, and the whole batch finishes in well under the
   serialized time. A deadline shorter than the straggle fails with a
   structured Deadline_exceeded. *)
let test_pipelined_slow_reader () =
  with_faults
    [ F.Slow_kernel { pattern = "slow_reader"; step = 0; ms = 30.0 } ]
  @@ fun () ->
  let b = B.create () in
  let x = B.const b (Tensor.ones Dtype.F32 [| 4; 4 |]) in
  let slow = B.identity b ~name:"slow_reader" x in
  let out = B.reduce_sum b (B.add b slow slow) in
  (* Optimizations off: constant folding would erase the named
     slow_reader node (its input is a Const), and with it the straggle
     this test is about. *)
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~max_in_flight:4 ())
      (B.graph b)
  in
  (* Warm-up pays plan compilation (and one straggle). *)
  ignore (Session.run s [ out ]);
  let n = 8 in
  let t0 = Unix.gettimeofday () in
  let options = Session.Run_options.v ~deadline:1.0 () in
  let handles = List.init n (fun _ -> Session.run_async ~options s [ out ]) in
  List.iter
    (fun h ->
      match Session.wait h with
      | [ t ], _ -> Alcotest.(check (float 0.)) "exact fetch" 32.0 (scalar t)
      | _ -> Alcotest.fail "wrong arity")
    handles;
  let wall = Unix.gettimeofday () -. t0 in
  let serialized = float_of_int n *. 0.030 in
  Alcotest.(check bool)
    (Printf.sprintf "straggles overlapped (%.0f ms < %.0f ms serial)"
       (1000. *. wall) (1000. *. serialized))
    true
    (wall < 0.8 *. serialized);
  (* A 5 ms deadline cannot survive a 30 ms straggler: the watchdog
     cancels mid-straggle and the step fails structurally. *)
  let tight = Session.Run_options.v ~deadline:0.005 () in
  match Session.wait (Session.run_async ~options:tight s [ out ]) with
  | _ -> Alcotest.fail "expected a deadline failure"
  | exception Session.Run_error f -> (
      match f.Step_failure.cause with
      | Step_failure.Deadline_exceeded _ -> ()
      | c ->
          Alcotest.failf "wrong cause: %s" (Step_failure.cause_message c))

(* ------------------------------------------------------------------ *)
(* Recovery: supervisor resumes from the latest checkpoint             *)
(* ------------------------------------------------------------------ *)

let test_supervisor_resumes_from_checkpoint () =
  with_faults [ F.Fail_kernel { pattern = "AssignAdd"; step = 12 } ]
  @@ fun () ->
  let b = B.create () in
  let store = Vs.create b in
  let w = Vs.get store ~init:Octf_nn.Init.zeros ~name:"acc" [||] in
  let bump = B.assign_add b w.Vs.handle (B.const_f b 1.0) in
  let s = Session.create (B.graph b) in
  let saver = Octf_train.Saver.create store in
  let prefix = fresh_prefix "sup" in
  let failures = ref 0 and restores = ref 0 in
  let sup =
    Octf_train.Supervisor.create ~save_every:5 ~backoff:0.001
      ~on_event:(function
        | Octf_train.Supervisor.Step_failed _ -> incr failures
        | Octf_train.Supervisor.Restored _ -> incr restores
        | _ -> ())
      ~saver ~prefix s
  in
  let stats =
    Octf_train.Supervisor.run sup ~steps:20
      ~init:(fun () -> Session.run_unit s [ Vs.init_op store ])
      (fun ~step:_ ~deadline:_ -> Session.run_unit s [ bump ])
  in
  Alcotest.(check int) "one failure" 1 !failures;
  Alcotest.(check int) "one restore" 1 !restores;
  Alcotest.(check bool) "checkpointed" true
    (stats.Octf_train.Supervisor.checkpoints > 0);
  (* Restoring rolled the accumulator back to the checkpointed step, so
     re-run steps are not double counted. *)
  Alcotest.(check (float 0.)) "value consistent with step count" 20.0
    (scalar (List.hd (Session.run s [ w.Vs.read ])))

(* The acceptance demo: a parameter-server task dies mid-training; the
   step fails with a structured error within the deadline, the
   supervisor restarts the task and restores the latest checkpoint, and
   training converges to the fault-free optimum. *)
let test_ps_kill_recovery_converges () =
  let run_training ~faulty =
    let c =
      Cluster.create
        ~jobs:[ ("ps", 1, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ]
    in
    let b = B.create () in
    let store = Vs.create b in
    let w =
      Vs.get store ~device:"/job:ps/task:0" ~init:Octf_nn.Init.zeros
        ~name:"w" [||]
    in
    (* Minimize (w - 4)^2 with the gradient computed on the worker. *)
    let grad =
      B.with_device b "/job:worker/task:0" (fun () ->
          B.mul b (B.sub b w.Vs.read (B.const_f b 4.0)) (B.const_f b 2.0))
    in
    let update = B.assign_sub b w.Vs.handle (B.mul b grad (B.const_f b 0.1)) in
    let s = Cluster.session c (B.graph b) in
    let saver = Octf_train.Saver.create store in
    let prefix = fresh_prefix "psk" in
    let seen_failure = ref None in
    let sup =
      Octf_train.Supervisor.create ~save_every:10 ~backoff:0.001
        ~deadline:2.0
        ~on_event:(function
          | Octf_train.Supervisor.Step_failed (_, f) -> seen_failure := Some f
          | _ -> ())
        ~on_recover:(fun _ ->
          (* Bring the dead task back with empty memory, as a process
             restart would (§4.3); init + restore rebuild its state. *)
          List.iter
            (fun (job, task) ->
              F.revive_task ~job ~task;
              Cluster.restart_task c ~job ~task)
            (F.killed_tasks ()))
        ~saver ~prefix s
    in
    if faulty then
      F.install [ F.Kill_task { job = "ps"; task = 0; step = 25 } ];
    Fun.protect ~finally:F.reset @@ fun () ->
    let stats =
      Octf_train.Supervisor.run sup ~steps:60
        ~init:(fun () -> Session.run_unit s [ Vs.init_op store ])
        (fun ~step:_ ~deadline -> Session.run_unit ?deadline s [ update ])
    in
    let final = scalar (List.hd (Session.run s [ w.Vs.read ])) in
    (final, stats, !seen_failure)
  in
  let clean, _, no_failure = run_training ~faulty:false in
  Alcotest.(check bool) "fault-free run saw no failure" true
    (no_failure = None);
  let faulty, stats, failure = run_training ~faulty:true in
  (match failure with
  | None -> Alcotest.fail "injected kill never surfaced"
  | Some f -> (
      match f.Step_failure.cause with
      | Step_failure.Fault_injected msg ->
          Alcotest.(check bool) "names the dead task" true
            (contains msg "/job:ps/task:0")
      | Step_failure.Rendezvous_aborted msg | Step_failure.Cancelled msg ->
          Alcotest.failf "collateral error won over root cause: %s" msg
      | c ->
          Alcotest.failf "expected Fault_injected, got %s"
            (Step_failure.cause_message c)));
  Alcotest.(check bool) "restored from checkpoint" true
    (stats.Octf_train.Supervisor.restores >= 1);
  Alcotest.(check bool) "training survived and converged" true
    (Float.abs (faulty -. clean) < 0.2);
  Alcotest.(check (float 0.3)) "reaches the optimum" 4.0 faulty

(* ------------------------------------------------------------------ *)
(* Cluster surface                                                     *)
(* ------------------------------------------------------------------ *)

let test_restart_task_clears_state () =
  let c = Cluster.create ~jobs:[ ("ps", 1, [ Device.CPU ]) ] in
  let res = Cluster.task_resources c ~job:"ps" ~task:0 in
  ignore
    (Resource_manager.find_or_create res "v" (fun () ->
         Resource.Variable
           (Resource.make_variable ~name:"v" ~dtype:Dtype.F32 ~shape:[||])));
  Alcotest.(check bool) "variable present" true
    (Resource_manager.find res "v" <> None);
  Cluster.restart_task c ~job:"ps" ~task:0;
  Alcotest.(check bool) "memory lost on restart" true
    (Resource_manager.find res "v" = None);
  match Cluster.restart_task c ~job:"ps" ~task:9 with
  | () -> Alcotest.fail "restarted a task that does not exist"
  | exception Step_failure.Error f -> (
      match f.Step_failure.cause with
      | Step_failure.Missing_task msg ->
          Alcotest.(check bool) "names it" true (contains msg "/job:ps/task:9")
      | c ->
          Alcotest.failf "expected Missing_task, got %s"
            (Step_failure.cause_message c))

let suite =
  [
    Alcotest.test_case "fault spec grammar" `Quick test_spec_parsing;
    Alcotest.test_case "kernel fault is structured" `Quick
      test_kernel_fault_structured;
    Alcotest.test_case "flaky faults are seeded" `Quick test_flaky_determinism;
    Alcotest.test_case "duplicate send is structured" `Quick
      test_duplicate_send_structured;
    Alcotest.test_case "recv after abort" `Quick test_recv_after_abort;
    Alcotest.test_case "abort wakes blocked recv" `Quick
      test_abort_wakes_blocked_recv;
    Alcotest.test_case "recv honours deadline" `Quick test_recv_deadline;
    Alcotest.test_case "cancel wakes blocked dequeue" `Quick
      test_queue_cancel_wakes_dequeue;
    Alcotest.test_case "polled deadline in queue wait" `Quick
      test_sync_deadline_poll_in_queue_wait;
    Alcotest.test_case "deadline wakes blocked enqueue" `Quick
      test_queue_cancel_wakes_enqueue;
    Alcotest.test_case "close wakes all waiters" `Quick
      test_close_wakes_all_waiters;
    Alcotest.test_case "dequeue_many requeues on close" `Quick
      test_dequeue_many_requeues_on_close;
    Alcotest.test_case "deadline on cyclic graph (inline)" `Quick
      (check_deadline_on_cyclic Scheduler.Inline);
    Alcotest.test_case "deadline on cyclic graph (pool)" `Quick
      (check_deadline_on_cyclic Scheduler.Pool);
    Alcotest.test_case "pipelined steps overlap a slow reader" `Quick
      test_pipelined_slow_reader;
    Alcotest.test_case "dropped send rescued by deadline" `Quick
      test_dropped_send_rescued_by_deadline;
    Alcotest.test_case "supervisor resumes from checkpoint" `Quick
      test_supervisor_resumes_from_checkpoint;
    Alcotest.test_case "ps kill: recover and converge" `Quick
      test_ps_kill_recovery_converges;
    Alcotest.test_case "restart_task clears state" `Quick
      test_restart_task_clears_state;
  ]
