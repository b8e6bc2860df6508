(* Serving: graph freeze + dynamic micro-batching (ISSUE 8). *)

open Octf_tensor
open Octf
module B = Builder
module Vs = Octf_nn.Var_store
module Serving = Octf_serving.Serving

(* A small trained-ish MLP: x[n,4] -> relu(x W1 + b1) W2 -> y[n,3]. *)
let build_mlp () =
  let b = B.create () in
  let vs = Vs.create b in
  let x = B.placeholder b ~name:"x" Dtype.F32 in
  let w1 = Vs.get vs ~name:"w1" [| 4; 8 |] in
  let b1 = Vs.get vs ~name:"b1" [| 8 |] in
  let w2 = Vs.get vs ~name:"w2" [| 8; 3 |] in
  let h = B.relu b (B.add b (B.matmul b x w1.Vs.read) b1.Vs.read) in
  let y = B.matmul b h w2.Vs.read in
  (b, vs, x, y)

let batch_input n =
  Tensor.init_f [| n; 4 |] (fun idx ->
      float_of_int ((idx.(0) * 4) + idx.(1)) /. 7.0)

let test_freeze_bit_identical () =
  let b, vs, x, y = build_mlp () in
  let live = Session.create (B.graph b) in
  Session.run_unit live [ Vs.init_op vs ];
  let feed = batch_input 5 in
  let baseline =
    match Session.run ~feeds:[ (x, feed) ] live [ y ] with
    | [ v ] -> v
    | _ -> Alcotest.fail "arity"
  in
  (* The frozen graph must fetch bit-identical tensors whatever the
     execution strategy. Quantization changes numerics, so it is pinned
     off rather than left to OCTF_QUANTIZE. *)
  List.iter
    (fun (scheduler, threads) ->
      let config =
        Session.Config.v ~scheduler ~intra_op_threads:threads ~quantize:false ()
      in
      let frozen = Serving.freeze_session ~config ~inputs:[ x ] ~outputs:[ y ] live in
      match Session.run ~feeds:[ (x, feed) ] frozen [ y ] with
      | [ v ] ->
          Alcotest.(check bool)
            (Printf.sprintf "bit-identical (%s x %d)"
               (match scheduler with
               | Scheduler.Inline -> "inline"
               | Scheduler.Pool -> "pool")
               threads)
            true (Tensor.equal baseline v)
      | _ -> Alcotest.fail "arity")
    [
      (Scheduler.Inline, 1);
      (Scheduler.Inline, 4);
      (Scheduler.Pool, 1);
      (Scheduler.Pool, 4);
    ];
  (* restore the default thread budget for the rest of the suite *)
  Octf_tensor.Parallel.set_threads 1

let test_freeze_isolated_from_training () =
  let b, vs, x, y = build_mlp () in
  let live = Session.create (B.graph b) in
  Session.run_unit live [ Vs.init_op vs ];
  let feed = batch_input 3 in
  let run s = List.hd (Session.run ~feeds:[ (x, feed) ] s [ y ]) in
  let frozen = Serving.freeze_session ~inputs:[ x ] ~outputs:[ y ] live in
  let before = run frozen in
  (* Clobber a trained variable in the live session: the live output
     moves, the frozen one must not (its weights are constants), and
     the training graph itself still works (freeze worked on a copy). *)
  let w1 = List.find (fun (v : Vs.variable) -> v.Vs.name = "w1") (Vs.all vs) in
  let live_before = run live in
  Session.run_unit live
    [ B.assign b w1.Vs.handle (B.fill b [| 4; 8 |] 0.0) ];
  let live_after = run live in
  Alcotest.(check bool) "live session sees the update" false
    (Tensor.equal live_before live_after);
  Alcotest.(check bool) "frozen session does not" true
    (Tensor.equal before (run frozen))

let test_freeze_from_checkpoint () =
  let b, vs, x, y = build_mlp () in
  let live = Session.create (B.graph b) in
  Session.run_unit live [ Vs.init_op vs ];
  let feed = batch_input 4 in
  let baseline = List.hd (Session.run ~feeds:[ (x, feed) ] live [ y ]) in
  let dir = Filename.temp_file "octf_serving" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "model.ckpt" in
  let saver = Octf_train.Saver.create vs in
  Octf_train.Saver.save saver live ~path;
  let frozen =
    Serving.freeze_checkpoint ~quantize:false ~path ~inputs:[ x ] ~outputs:[ y ]
      (B.graph b)
  in
  let v = List.hd (Session.run ~feeds:[ (x, feed) ] frozen [ y ]) in
  Alcotest.(check bool) "checkpoint freeze bit-identical" true
    (Tensor.equal baseline v);
  Sys.remove path;
  Unix.rmdir dir

let test_freeze_rejects_unresolved_variables () =
  let b, _vs, x, y = build_mlp () in
  match
    Serving.freeze ~values:(fun _ -> None) ~inputs:[ x ] ~outputs:[ y ]
      (B.graph b)
  with
  | _ -> Alcotest.fail "freeze with no values must fail"
  | exception Step_failure.Error { cause = Step_failure.Invalid_graph _; _ }
    ->
      ()

(* Identity-with-a-twist model for batching tests: y = 2x + 1, so each
   request's row is recognizably its own. *)
let doubler () =
  let b = B.create () in
  let x = B.placeholder b ~name:"x" Dtype.F32 in
  let y = B.add b (B.mul b x (B.const_f b 2.0)) (B.const_f b 1.0) in
  let session = Session.create (B.graph b) in
  (session, x, y)

let example v = Tensor.of_float_array [| 2 |] [| v; v +. 0.5 |]

let test_batch_coalescing () =
  let session, x, y = doubler () in
  let server =
    Serving.create ~name:"coalesce" ~max_batch_size:4 ~max_queue_delay:0.05
      ~session ~inputs:[ x ] ~outputs:[ y ] ()
  in
  let n_clients = 8 in
  let results = Array.make n_clients None in
  let clients =
    List.init n_clients (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Some (Serving.infer server [ example (float_of_int i) ]))
          ())
  in
  List.iter Thread.join clients;
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok [ row ]) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "client %d got its own row" i)
            ((2.0 *. float_of_int i) +. 1.0)
            (Tensor.flat_get_f row 0);
          Alcotest.(check (array int)) "row shape, batch axis dropped"
            [| 2 |] (Tensor.shape row)
      | Some (Ok _) -> Alcotest.fail "arity"
      | Some (Error f) -> Alcotest.fail (Step_failure.to_string f)
      | None -> Alcotest.fail "client did not finish")
    results;
  let stats = Serving.stats server in
  Alcotest.(check int) "all served" n_clients stats.Serving.served;
  Alcotest.(check bool) "requests were coalesced" true
    (stats.Serving.batches < n_clients && stats.Serving.max_batch >= 2);
  Serving.shutdown server

(* A deliberately slow step: sixteen chained [n,1024]x[1024,1024]
   matmuls, tens of milliseconds on any machine. *)
let slow_model () =
  let b = B.create () in
  let x = B.placeholder b ~name:"x" Dtype.F32 in
  let w = B.fill b [| 1024; 1024 |] 0.001 in
  let rec chain acc = function
    | 0 -> acc
    | k -> chain (B.matmul b acc w) (k - 1)
  in
  let y = chain x 16 in
  let session = Session.create (B.graph b) in
  (session, x, y)

let slow_example v = Tensor.full Dtype.F32 [| 1024 |] v

let test_mid_batch_deadline_expiry () =
  let session, x, y = slow_model () in
  let server =
    Serving.create ~name:"deadline" ~max_batch_size:8 ~max_queue_delay:0.01
      ~session ~inputs:[ x ] ~outputs:[ y ] ()
  in
  (* Both requests land in one batch (submits are back-to-back, window
     10ms). The impatient one has far more than the window but far
     less than the step, so it expires while its rows compute; the
     patient one makes the step unbounded and is answered. *)
  let impatient = Serving.submit ~deadline:0.02 server [ slow_example 1.0 ] in
  let patient = Serving.submit server [ slow_example 2.0 ] in
  (match impatient with
  | Ok r -> (
      match Serving.await r with
      | Error { Step_failure.cause = Step_failure.Deadline_exceeded _; _ } ->
          ()
      | Ok _ -> Alcotest.fail "impatient request should have expired"
      | Error f -> Alcotest.fail (Step_failure.to_string f))
  | Error f -> Alcotest.fail (Step_failure.to_string f));
  (match patient with
  | Ok r -> (
      match Serving.await r with
      | Ok [ row ] ->
          Alcotest.(check (array int)) "row shape" [| 1024 |]
            (Tensor.shape row)
      | Ok _ -> Alcotest.fail "arity"
      | Error f -> Alcotest.fail (Step_failure.to_string f))
  | Error f -> Alcotest.fail (Step_failure.to_string f));
  let stats = Serving.stats server in
  Alcotest.(check int) "one batch carried both" 1 stats.Serving.batches;
  Alcotest.(check int) "one member expired" 1 stats.Serving.failed;
  Serving.shutdown server

let test_overload_rejection () =
  let session, x, y = slow_model () in
  let server =
    Serving.create ~name:"overload" ~max_batch_size:1 ~max_queue_delay:0.0
      ~queue_capacity:2 ~session ~inputs:[ x ] ~outputs:[ y ] ()
  in
  let submitted =
    List.init 10 (fun i -> Serving.submit server [ slow_example (float_of_int i) ])
  in
  let overloaded =
    List.filter
      (function
        | Error { Step_failure.cause = Step_failure.Overloaded _; _ } -> true
        | _ -> false)
      submitted
  in
  Alcotest.(check bool)
    (Printf.sprintf "some requests shed (%d)" (List.length overloaded))
    true
    (List.length overloaded >= 5);
  (* admitted requests are all eventually answered *)
  List.iter
    (function
      | Ok r -> (
          match Serving.await r with
          | Ok _ -> ()
          | Error f -> Alcotest.fail (Step_failure.to_string f))
      | Error _ -> ())
    submitted;
  let stats = Serving.stats server in
  Alcotest.(check int) "accounting adds up" 10
    (stats.Serving.served + stats.Serving.rejected);
  Alcotest.(check bool) "rejections metered" true
    (match
       Metrics.find_value
         ~labels:[ ("reason", "overloaded"); ("server", "overload") ]
         Metrics.default "octf_serving_rejected_total"
     with
    | Some v -> v >= 5.0
    | None -> false);
  Serving.shutdown server

let test_shutdown_fails_backlog () =
  let session, x, y = slow_model () in
  let server =
    Serving.create ~name:"shutdown" ~max_batch_size:1 ~max_queue_delay:0.0
      ~queue_capacity:8 ~session ~inputs:[ x ] ~outputs:[ y ] ()
  in
  let rs = List.init 4 (fun i -> Serving.submit server [ slow_example (float_of_int i) ]) in
  Serving.shutdown server;
  (* every admitted request resolves: served, cancelled, or expired —
     none hangs *)
  List.iter
    (function
      | Ok r -> (
          match Serving.await r with Ok _ | Error _ -> ())
      | Error _ -> ())
    rs;
  match Serving.submit server [ slow_example 9.0 ] with
  | Error { Step_failure.cause = Step_failure.Cancelled _; _ } -> ()
  | Ok _ -> Alcotest.fail "submit after shutdown must be rejected"
  | Error f -> Alcotest.fail (Step_failure.to_string f)

let test_signature_rejection () =
  let session, x, y = doubler () in
  let server =
    Serving.create ~name:"sig" ~max_batch_size:4 ~max_queue_delay:0.001
      ~session ~inputs:[ x ] ~outputs:[ y ] ()
  in
  (match Serving.infer server [ example 1.0 ] with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Step_failure.to_string f));
  (* later requests must match the signature fixed by the first *)
  (match Serving.submit server [ Tensor.of_float_array [| 3 |] [| 1.; 2.; 3. |] ] with
  | Error { Step_failure.cause = Step_failure.Invalid_graph _; _ } -> ()
  | Ok _ -> Alcotest.fail "mismatched shape must be rejected"
  | Error f -> Alcotest.fail (Step_failure.to_string f));
  (match Serving.submit server [] with
  | Error { Step_failure.cause = Step_failure.Invalid_graph _; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong arity must be rejected"
  | Error f -> Alcotest.fail (Step_failure.to_string f));
  Serving.shutdown server

let suite =
  [
    Alcotest.test_case "freeze is bit-identical across schedulers" `Quick
      test_freeze_bit_identical;
    Alcotest.test_case "freeze is isolated from training" `Quick
      test_freeze_isolated_from_training;
    Alcotest.test_case "freeze from checkpoint" `Quick
      test_freeze_from_checkpoint;
    Alcotest.test_case "freeze rejects unresolved variables" `Quick
      test_freeze_rejects_unresolved_variables;
    Alcotest.test_case "batch coalescing under concurrent clients" `Quick
      test_batch_coalescing;
    Alcotest.test_case "mid-batch deadline expiry" `Quick
      test_mid_batch_deadline_expiry;
    Alcotest.test_case "overload rejection at high-watermark" `Quick
      test_overload_rejection;
    Alcotest.test_case "shutdown fails the backlog" `Quick
      test_shutdown_fails_backlog;
    Alcotest.test_case "served signature is enforced" `Quick
      test_signature_rejection;
  ]
