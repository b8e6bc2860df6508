(* A partitioned step's in-process parts run as fibers of the calling
   thread: no thread per part, hand-offs without a thread switch, and a
   part that blocks in a queue wait holds the step's one thread. *)

open Octf_tensor
open Octf
module B = Builder

let jobs = [ ("ps", 2, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ]

let on dev b f = B.with_device b dev f

let worker = "/job:worker/task:0"

let input = Tensor.of_float_array [| 2; 2 |] [| 0.5; -1.0; 0.25; 2.0 |]

let test_no_thread_per_part () =
  let b = B.create () in
  let x = on worker b (fun () -> B.placeholder b ~shape:[| 2; 2 |] Dtype.F32) in
  let m = on "/job:ps/task:0" b (fun () -> B.matmul b x x) in
  let y = on worker b (fun () -> B.tanh b m) in
  let s = Cluster.session (Cluster.create ~jobs) (B.graph b) in
  let step () = ignore (Session.run ~feeds:[ (x, input) ] s [ y ]) in
  step ();
  let (), started = Test_timer.threads_started step in
  Alcotest.(check int) "threads started by a ps/worker step" 0 started

(* worker -> ps0 -> worker -> ps1 -> worker -> ps0 -> worker: six
   transfers, three round trips, each hop a kernel on its task. *)
let chain ~placed =
  let b = B.create () in
  let on dev f = if placed then on dev b f else f () in
  let x = on worker (fun () -> B.placeholder b ~shape:[| 2; 2 |] Dtype.F32) in
  let hop v ps =
    let w = on worker (fun () -> B.tanh b (B.matmul b v v)) in
    on ps (fun () -> B.sub b (B.mul b w v) x)
  in
  let v =
    List.fold_left hop x [ "/job:ps/task:0"; "/job:ps/task:1"; "/job:ps/task:0" ]
  in
  let y = on worker (fun () -> B.add b v x) in
  (B.graph b, x, y)

let test_chain_matches_unplaced () =
  let run session x y =
    Tensor.to_float_array
      (List.hd (Session.run ~feeds:[ (x, input) ] session [ y ]))
  in
  let g, x, y = chain ~placed:true in
  let placed = Cluster.session (Cluster.create ~jobs) g in
  let g', x', y' = chain ~placed:false in
  let plain = Session.create g' in
  let expected = run plain x' y' in
  for _ = 1 to 3 do
    Alcotest.(check (array (float 0.0)))
      "bit-identical to the unplaced graph" expected (run placed x y)
  done

(* The ps part dequeues from its queue, which only another thread
   fills, while the worker part still has kernels to run that wait on a
   value the ps part sends. *)
let queue_step () =
  let b = B.create () in
  let ps = "/job:ps/task:0" in
  let q = on ps b (fun () -> B.fifo_queue b ~capacity:2 ~num_components:1 ()) in
  let v = B.placeholder b ~shape:[| 2; 2 |] Dtype.F32 in
  let enqueue = B.enqueue b q [ v ] in
  let x = on worker b (fun () -> B.placeholder b ~shape:[| 2; 2 |] Dtype.F32) in
  let sent = on ps b (fun () -> B.matmul b x x) in
  let dequeued = List.hd (B.dequeue b q ~num_components:1) in
  let y = on worker b (fun () -> B.tanh b (B.add b sent x)) in
  let s = Cluster.session (Cluster.create ~jobs) (B.graph b) in
  let device (o : B.output) =
    Option.map Device.to_string
      (Graph.get (B.graph b) o.B.node.Node.id).Node.assigned_device
  in
  (s, x, v, enqueue, dequeued, y, fun () -> List.map device [ q; enqueue; dequeued ])

let test_blocked_dequeue () =
  let s, x, v, enqueue, dequeued, y, devices = queue_step () in
  let expected =
    let b = B.create () in
    let x = B.placeholder b ~shape:[| 2; 2 |] Dtype.F32 in
    let y = B.tanh b (B.add b (B.matmul b x x) x) in
    Tensor.to_float_array
      (List.hd (Session.run ~feeds:[ (x, input) ] (Session.create (B.graph b)) [ y ]))
  in
  let filled = Tensor.full Dtype.F32 [| 2; 2 |] 3.0 in
  let filler =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Session.run_unit ~feeds:[ (v, filled) ] s [ enqueue ])
      ()
  in
  let got = Session.run ~feeds:[ (x, input) ] s [ dequeued; y ] in
  Thread.join filler;
  (* Every op on the queue sits on the queue's device, so the Enqueue
     that fills a Dequeue is never a sibling part of the same step. *)
  Alcotest.(check (list (option string)))
    "queue ops colocated with the queue"
    (List.init 3 (fun _ -> Some "/job:ps/task:0/device:CPU:0"))
    (devices ());
  match got with
  | [ d; t ] ->
      Alcotest.(check (array (float 0.0)))
        "dequeued what the other thread enqueued"
        (Tensor.to_float_array filled) (Tensor.to_float_array d);
      Alcotest.(check (array (float 0.0)))
        "the worker part's kernels ran" expected (Tensor.to_float_array t)
  | _ -> Alcotest.fail "arity"

let test_blocked_dequeue_deadline () =
  let s, x, _, _, dequeued, y, _ = queue_step () in
  let t0 = Unix.gettimeofday () in
  match Session.run ~deadline:0.1 ~feeds:[ (x, input) ] s [ dequeued; y ] with
  | _ -> Alcotest.fail "an unfilled Dequeue must run out its deadline"
  | exception Session.Run_error f ->
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check string) "cause" "deadline_exceeded"
        (Step_failure.cause_kind f.Step_failure.cause);
      Alcotest.(check bool)
        (Printf.sprintf "failed after %.0f ms, well under 1 s" (1000. *. elapsed))
        true (elapsed < 0.5)

let suite =
  [
    Alcotest.test_case "an in-process partitioned step starts no thread" `Quick
      test_no_thread_per_part;
    Alcotest.test_case "three round trips match the unplaced graph" `Quick
      test_chain_matches_unplaced;
    Alcotest.test_case "a part blocked in a Dequeue, filled by another thread"
      `Quick test_blocked_dequeue;
    Alcotest.test_case "an unfilled Dequeue runs out its deadline" `Quick
      test_blocked_dequeue_deadline;
  ]
