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
     execution strategy. *)
  List.iter
    (fun (scheduler, threads) ->
      let config =
        Session.Config.v ~scheduler ~intra_op_threads:threads ()
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
  (* a float and an int8 frozen copy *)
  let frozen =
    List.map
      (fun quantize ->
        ( quantize,
          Serving.freeze_session ~quantize ~inputs:[ x ] ~outputs:[ y ] live
        ))
      [ false; true ]
  in
  let before = List.map (fun (_, f) -> run f) frozen in
  (* Clobber a trained variable in the live session: the live output
     moves, the frozen ones must not (their weights are constants), and
     the training graph itself still works (freeze worked on a copy). *)
  let w1 = List.find (fun (v : Vs.variable) -> v.Vs.name = "w1") (Vs.all vs) in
  let live_before = run live in
  Session.run_unit live
    [ B.assign b w1.Vs.handle (B.fill b [| 4; 8 |] 0.0) ];
  let live_after = run live in
  Alcotest.(check bool) "live session sees the update" false
    (Tensor.equal live_before live_after);
  List.iter2
    (fun (quantize, f) before ->
      Alcotest.(check bool)
        (Printf.sprintf "frozen session does not (quantize %b)" quantize)
        true
        (Tensor.equal before (run f)))
    frozen before

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
    Serving.freeze_checkpoint ~path ~inputs:[ x ] ~outputs:[ y ] (B.graph b)
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

(* A frozen recurrent cell with a two-input, two-output signature:
   (x, h) -> (h', y), gates over [x; h] as an LSTM cell computes them.
   Quantization changes numerics, so it is pinned off. *)
let two_io_cell () =
  let b = B.create () in
  let vs = Vs.create ~seed:5 b in
  let x = B.placeholder b ~name:"x" Dtype.F32 in
  let h = B.placeholder b ~name:"h" Dtype.F32 in
  let w =
    Vs.get vs ~init:Octf_nn.Init.glorot_uniform ~name:"cell/kernel" [| 7; 8 |]
  in
  let bias =
    Vs.get vs ~init:(Octf_nn.Init.uniform ~lo:(-0.5) ~hi:0.5 ()) ~name:"cell/bias"
      [| 8 |]
  in
  let w_out =
    Vs.get vs ~init:Octf_nn.Init.glorot_uniform ~name:"out" [| 4; 2 |]
  in
  let z =
    B.add b (B.matmul b (B.concat b ~axis:1 [ x; h ]) w.Vs.read) bias.Vs.read
  in
  let gate k = B.slice b z ~begin_:[| 0; 4 * k |] ~size:[| -1; 4 |] in
  let h' = B.mul b (B.sigmoid b (gate 0)) (B.tanh b (gate 1)) in
  let y = B.matmul b h' w_out.Vs.read in
  let live = Session.create (B.graph b) in
  Session.run_unit live [ Vs.init_op vs ];
  let frozen =
    Serving.freeze_session ~inputs:[ x; h ] ~outputs:[ h'; y ] live
  in
  (frozen, [ x; h ], [ h'; y ])

(* Clients that pipeline: each keeps [depth] submits in flight and reads
   them back with await, as a serving frontend multiplexing its own
   callers does. Every answer must be the unbatched run of its own
   example, bit for bit, whichever batch it rode in. *)
let test_pipelined_multi_io () =
  let frozen, inputs, outputs = two_io_cell () in
  let server =
    Serving.create ~name:"pipelined" ~max_batch_size:8 ~max_queue_delay:0.02
      ~session:frozen ~inputs ~outputs ()
  in
  let clients = 4 and per_client = 16 and depth = 4 in
  let example ci ri =
    let rng = Rng.create ((100 * ci) + ri) in
    [
      Tensor.uniform rng [| 3 |] ~lo:(-1.0) ~hi:1.0;
      Tensor.uniform rng [| 4 |] ~lo:(-1.0) ~hi:1.0;
    ]
  in
  let answers = Array.make_matrix clients per_client None in
  let client ci =
    let inflight = Queue.create () in
    let drain () =
      let ri, req = Queue.pop inflight in
      answers.(ci).(ri) <- Some (Serving.await req)
    in
    for ri = 0 to per_client - 1 do
      if Queue.length inflight >= depth then drain ();
      match Serving.submit server (example ci ri) with
      | Ok req -> Queue.add (ri, req) inflight
      | Error f -> answers.(ci).(ri) <- Some (Error f)
    done;
    while not (Queue.is_empty inflight) do
      drain ()
    done
  in
  List.iter Thread.join (List.init clients (Thread.create client));
  let stats = Serving.stats server in
  Serving.shutdown server;
  Array.iteri
    (fun ci row ->
      Array.iteri
        (fun ri answer ->
          let ex = example ci ri in
          let feeds =
            List.map2
              (fun p t ->
                (p, Tensor.reshape t (Array.append [| 1 |] (Tensor.shape t))))
              inputs ex
          in
          let want = Session.run ~feeds frozen outputs in
          match answer with
          | Some (Ok got) ->
              Alcotest.(check (list (array int)))
                "output shapes, batch axis dropped" [ [| 4 |]; [| 2 |] ]
                (List.map Tensor.shape got);
              List.iter2
                (fun w g ->
                  Alcotest.(check bool)
                    (Printf.sprintf "client %d request %d bit-identical" ci ri)
                    true
                    (Tensor.equal (Tensor.reshape w (Tensor.shape g)) g))
                want got
          | Some (Error f) -> Alcotest.fail (Step_failure.to_string f)
          | None -> Alcotest.fail "request never answered")
        row)
    answers;
  Alcotest.(check int) "all served" (clients * per_client) stats.Serving.served;
  Alcotest.(check bool) "requests were coalesced" true
    (stats.Serving.max_batch >= 2)

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

(* ------------------------------------------------------------------ *)
(* Frozen graphs are fused                                              *)

let count_stats_op stats op =
  List.length
    (List.filter (fun ns -> ns.Step_stats.op_type = op) stats.Step_stats.nodes)

(* A frozen while_loop LSTM shaped like the serving benchmark's: gates
   over [x; h] with loop-invariant weights, run over [steps] inputs. *)
let rnn_units = 8

let rnn_input = 4

let rnn_steps = 3

let build_rnn () =
  let b = B.create () in
  let store = Vs.create ~seed:7 b in
  let w =
    Vs.get store ~init:Octf_nn.Init.glorot_uniform ~name:"rnn/kernel"
      [| rnn_input + rnn_units; 4 * rnn_units |]
  in
  let bias =
    Vs.get store ~init:(Octf_nn.Init.uniform ~lo:(-0.5) ~hi:0.5 ())
      ~name:"rnn/bias" [| 4 * rnn_units |]
  in
  let xs = B.placeholder b ~name:"xs" Dtype.F32 in
  let xt = B.transpose b ~perm:[| 1; 0; 2 |] xs in
  let zero =
    B.matmul b
      (B.gather b xt (B.const_i b 0))
      (B.const b (Tensor.zeros Dtype.F32 [| rnn_input; rnn_units |]))
  in
  let cell ~w ~bias ~x ~h ~c =
    let z = B.add b (B.matmul b (B.concat b ~axis:1 [ x; h ]) w) bias in
    let gate k =
      B.slice b z ~begin_:[| 0; k * rnn_units |] ~size:[| -1; rnn_units |]
    in
    let i = B.sigmoid b (gate 0) and f = B.sigmoid b (gate 1) in
    let g = B.tanh b (gate 2) and o = B.sigmoid b (gate 3) in
    let c' = B.add b (B.mul b f c) (B.mul b i g) in
    (B.mul b o (B.tanh b c'), c')
  in
  let outs =
    B.while_loop b ~name:"rnn"
      ~invariants:[ xt; w.Vs.read; bias.Vs.read; B.const_i b rnn_steps ]
      ~cond:(fun b -> function
        | [ i; _; _; _; _; _; limit ] -> B.less b i limit
        | _ -> assert false)
      ~body:(fun b -> function
        | [ i; h; c; xt; w; bias; _ ] ->
            let h', c' = cell ~w ~bias ~x:(B.gather b xt i) ~h ~c in
            [ B.add b i (B.ones_like b i); h'; c' ]
        | _ -> assert false)
      [ B.const_i b 0; zero; zero ]
  in
  let session = Session.create (B.graph b) in
  Session.run_unit session [ Vs.init_op store ];
  (session, xs, List.nth outs 1)

let rnn_batch n =
  Tensor.uniform (Rng.create (11 + n)) [| n; rnn_steps; rnn_input |] ~lo:(-1.0)
    ~hi:1.0

let run_frozen frozen x feed y =
  let options =
    Session.Run_options.v ~feeds:[ (x, feed) ] ~collect_stats:true ()
  in
  let fetched, md = Session.run_with_metadata ~options frozen [ y ] in
  (List.hd fetched, Option.get md.Session.Run_metadata.step_stats)

let test_frozen_rnn_fused () =
  let live, xs, h = build_rnn () in
  let freeze fusion =
    Serving.freeze_session
      ~config:(Session.Config.v ~fusion ())
      ~inputs:[ xs ] ~outputs:[ h ] live
  in
  let fused = freeze true and plain = freeze false in
  List.iter
    (fun n ->
      let feed = rnn_batch n in
      let want, plain_stats = run_frozen plain xs feed h in
      let got, fused_stats = run_frozen fused xs feed h in
      Alcotest.(check bool)
        (Printf.sprintf "batch %d bit-identical" n)
        true (Tensor.equal want got);
      Alcotest.(check bool)
        (Printf.sprintf "batch %d runs fused kernels" n)
        true
        (count_stats_op fused_stats "FusedElementwise" > 0);
      Alcotest.(check int)
        (Printf.sprintf "batch %d fusion off forms none" n)
        0
        (count_stats_op plain_stats "FusedElementwise");
      Alcotest.(check bool)
        (Printf.sprintf "batch %d fewer kernels" n)
        true
        (List.length fused_stats.Step_stats.nodes
        < List.length plain_stats.Step_stats.nodes))
    [ 1; 8 ]

(* Fuse runs after the int8 pass, so the islands still absorb their
   bias-add and Relu epilogues: the island count does not change, and
   the quantized answers stay bit-identical. *)
let test_quantized_islands_kept () =
  let b = B.create () in
  let store = Vs.create ~seed:3 b in
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let conv =
    Octf_nn.Layers.conv2d store ~activation:`Relu ~name:"conv1" ~in_channels:1
      ~out_channels:4 ~ksize:(3, 3) pixels
  in
  let pooled = Octf_nn.Layers.max_pool2d b ~ksize:(2, 2) conv in
  let flat = Octf_nn.Layers.flatten b ~features:(4 * 4 * 4) pooled in
  let hidden =
    Octf_nn.Layers.dense store ~activation:`Relu ~name:"fc1" ~in_dim:64
      ~out_dim:16 flat
  in
  let logits =
    Octf_nn.Layers.dense store ~name:"logits" ~in_dim:16 ~out_dim:3 hidden
  in
  let live = Session.create (B.graph b) in
  Session.run_unit live [ Vs.init_op store ];
  let images seed = Tensor.uniform (Rng.create seed) [| 4; 8; 8; 1 |] ~lo:0.0 ~hi:1.0 in
  let float_frozen =
    Serving.freeze_session
      ~config:(Session.Config.v ~fusion:false ())
      ~quantize:false ~inputs:[ pixels ] ~outputs:[ logits ] live
  in
  let cal = Quant_calibration.create () in
  List.iter
    (fun seed ->
      Quant_calibration.observe_step cal float_frozen
        ~feeds:[ (pixels, images seed) ]
        [ conv; hidden ])
    [ 1; 2 ];
  let freeze fusion =
    Serving.freeze_session
      ~config:(Session.Config.v ~fusion ())
      ~quantize:true ~ranges:(Quant_calibration.ranges cal) ~inputs:[ pixels ]
      ~outputs:[ logits ] live
  in
  let islands stats =
    List.fold_left
      (fun acc op -> acc + count_stats_op stats op)
      0
      [ "QuantizedConv2D"; "QuantizedConv2DQ"; "QuantizedMatMul"; "QuantizedMatMulQ" ]
  in
  let feed = images 9 in
  let want, plain_stats = run_frozen (freeze false) pixels feed logits in
  let got, fused_stats = run_frozen (freeze true) pixels feed logits in
  Alcotest.(check int) "three islands" 3 (islands plain_stats);
  Alcotest.(check int) "island count kept" (islands plain_stats)
    (islands fused_stats);
  Alcotest.(check bool) "bit-identical" true (Tensor.equal want got)

(* ------------------------------------------------------------------ *)
(* The fill window ends early                                           *)

(* A 5 s window: a batch answered within 1 s was woken, not timed out. *)
let test_full_batch_ends_window () =
  let session, x, y = doubler () in
  let server =
    Serving.create ~name:"full-window" ~max_batch_size:4 ~max_queue_delay:5.0
      ~session ~inputs:[ x ] ~outputs:[ y ] ()
  in
  Fun.protect ~finally:(fun () -> Serving.shutdown server) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let results = Array.make 4 None in
  let client i =
    Thread.create
      (fun () ->
        results.(i) <- Some (Serving.infer server [ example (float_of_int i) ]))
      ()
  in
  (* The first request opens the window; the other three arrive while
     the batcher waits in it. *)
  let first = client 0 in
  Thread.delay 0.05;
  let rest = List.init 3 (fun i -> client (i + 1)) in
  List.iter Thread.join (first :: rest);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3f s < 1 s" elapsed)
    true (elapsed < 1.0);
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok [ out ]) ->
          let v = float_of_int i in
          Alcotest.(check (array (float 0.0)))
            "own row"
            [| (2.0 *. v) +. 1.0; (2.0 *. (v +. 0.5)) +. 1.0 |]
            (Tensor.to_float_array out)
      | Some (Error f) -> Alcotest.fail (Step_failure.to_string f)
      | _ -> Alcotest.fail "missing answer")
    results;
  let st = Serving.stats server in
  Alcotest.(check int) "one batch" 1 st.Serving.batches;
  Alcotest.(check int) "of four" 4 st.Serving.max_batch

let test_shutdown_ends_window () =
  let session, x, y = doubler () in
  let server =
    Serving.create ~name:"shutdown-window" ~max_batch_size:4
      ~max_queue_delay:5.0 ~session ~inputs:[ x ] ~outputs:[ y ] ()
  in
  let rs =
    List.init 2 (fun i ->
        match Serving.submit server [ example (float_of_int i) ] with
        | Ok r -> r
        | Error f -> Alcotest.fail (Step_failure.to_string f))
  in
  (* Let the batcher open its window on the two requests. *)
  Thread.delay 0.05;
  let t0 = Unix.gettimeofday () in
  Serving.shutdown server;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "shutdown took %.3f s < 1 s" elapsed)
    true (elapsed < 1.0);
  List.iter
    (fun r -> match Serving.await r with Ok _ | Error _ -> ())
    rs;
  let st = Serving.stats server in
  Alcotest.(check int) "each request answered exactly once" 2
    (st.Serving.served + st.Serving.failed)

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
    Alcotest.test_case "frozen while_loop LSTM is fused" `Quick
      test_frozen_rnn_fused;
    Alcotest.test_case "fusion keeps the int8 island count" `Quick
      test_quantized_islands_kept;
    Alcotest.test_case "pipelined clients over a two-input, two-output model"
      `Quick test_pipelined_multi_io;
    Alcotest.test_case "a full batch ends the fill window" `Quick
      test_full_batch_ends_window;
    Alcotest.test_case "shutdown ends an open fill window" `Quick
      test_shutdown_ends_window;
  ]
