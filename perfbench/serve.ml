(* The two serving workloads. Each freezes a model, starts a Serving
   server over it and drives it with one closed-loop client that keeps
   [window] requests outstanding; the window equals the server's maximum
   batch size. An open loop generated from inside the server's own OCaml
   runtime ran up to tens of milliseconds late, and many client threads
   made the median bimodal; one closed-loop client avoids both.

   - serve_rnn: a frozen LSTM run over a 16-step sequence by
     [Builder.while_loop] with the weights as loop invariants — the only
     workload on the executor's frame-based general engine, with many
     small kernels per step.
   - serve_cnn_int8: a calibrated, int8-quantized frozen convnet — the
     only workload on Quant_kernels, with few heavy kernels per step. *)

open Octf_tensor
module B = Octf.Builder
module Vs = Octf_nn.Var_store
module S = Octf_serving.Serving

let now = Unix.gettimeofday
let window = 8
let max_queue_delay = 0.002
let queue_capacity = 64

(* Distinct requests generated from the seed, cycled by the client. *)
let pool = 64

let argmax t =
  let a = Tensor.to_float_array t in
  let best = ref 0 in
  Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
  !best

(* Stack single examples along a new leading axis. *)
let stack ts =
  let shape = Array.append [| List.length ts |] (Tensor.shape (List.hd ts)) in
  Tensor.of_float_array shape (Array.concat (List.map Tensor.to_float_array ts))

(* Closed-loop requests each set-up sends before its timed phase. *)
let warmup_requests = 16 * window

(* What a set-up leaves once its sessions and server are let go. *)
type readings = {
  compile_ms : float;
  freeze_ms : float;
  calibrate_ms : float;
  islands : float;
}

type live = {
  frozen : Octf.Session.t;
  server : S.t;
  input : B.output;
  output : B.output;
  float_twin : Octf.Session.t option;  (** the unquantized frozen model *)
  readings : readings;
}

(* Freezing compiles the frozen step inside [Serving.freeze_session], so
   the compile time is read from the same inference step on the live
   session. It runs after every freeze: compiling rewrites the live
   graph in place (the fuse pass), and the int8 rewrite must see the
   unfused bias-add and ReLU to absorb them. *)
let compile_ms session ~inputs ~outputs =
  let t = now () in
  Octf.Session.precompile ~feeds:inputs session outputs;
  (now () -. t) *. 1e3

(* {1 serve_rnn} *)

let steps = 16
let input_dim = 16
let units = 32

(* LSTM gates over [x; h] with invariant weights [w] and bias [bias]. *)
let lstm_step b ~w ~bias ~x ~h ~c =
  let z = B.add b (B.matmul b (B.concat b ~axis:1 [ x; h ]) w) bias in
  let gate k = B.slice b z ~begin_:[| 0; k * units |] ~size:[| -1; units |] in
  let i = B.sigmoid b (gate 0) and f = B.sigmoid b (gate 1) in
  let g = B.tanh b (gate 2) and o = B.sigmoid b (gate 3) in
  let c' = B.add b (B.mul b f c) (B.mul b i g) in
  (B.mul b o (B.tanh b c'), c')

let build_rnn ~seed =
  let b = B.create () in
  let store = Vs.create ~seed b in
  let w =
    Vs.get store ~init:Octf_nn.Init.glorot_uniform ~name:"rnn/kernel"
      [| input_dim + units; 4 * units |]
  in
  let bias =
    Vs.get store ~init:(Octf_nn.Init.uniform ~lo:(-0.1) ~hi:0.1 ()) ~name:"rnn/bias"
      [| 4 * units |]
  in
  (* [batch; steps; input_dim] requests, iterated time-major. *)
  let xs = B.placeholder b ~name:"xs" Dtype.F32 in
  let xt = B.transpose b ~perm:[| 1; 0; 2 |] xs in
  let zero = B.matmul b (B.gather b xt (B.const_i b 0)) (B.const b (Tensor.zeros Dtype.F32 [| input_dim; units |])) in
  let outs =
    B.while_loop b ~name:"rnn"
      ~invariants:[ xt; w.Vs.read; bias.Vs.read; B.const_i b steps ]
      ~cond:(fun b -> function
        | [ i; _; _; _; _; _; limit ] -> B.less b i limit
        | _ -> assert false)
      ~body:(fun b -> function
        | [ i; h; c; xt; w; bias; _ ] ->
            let h', c' = lstm_step b ~w ~bias ~x:(B.gather b xt i) ~h ~c in
            [ B.add b i (B.ones_like b i); h'; c' ]
        | _ -> assert false)
      [ B.const_i b 0; zero; zero ]
  in
  (B.graph b, Vs.init_op store, xs, List.nth outs 1)

let setup_rnn ~seed ~examples () =
  let graph, init, xs, h = build_rnn ~seed in
  let session = Octf.Session.create ~config:(Harness.config ~seed ()) graph in
  Octf.Session.run_unit session [ init ];
  let t = now () in
  let frozen =
    S.freeze_session ~config:(Harness.config ~seed ()) ~inputs:[ xs ] ~outputs:[ h ] session
  in
  let freeze_ms = (now () -. t) *. 1e3 in
  let compile_ms = compile_ms session ~inputs:[ xs ] ~outputs:[ h ] in
  let server =
    S.create ~name:"serve_rnn" ~max_batch_size:window ~max_queue_delay ~queue_capacity
      ~session:frozen ~inputs:[ xs ] ~outputs:[ h ] ()
  in
  ignore
    (Harness.closed_loop ~max_requests:warmup_requests server ~window
       ~seconds:Float.infinity ~examples);
  {
    frozen;
    server;
    input = xs;
    output = h;
    float_twin = None;
    readings = { compile_ms; freeze_ms; calibrate_ms = 0.0; islands = 0.0 };
  }

let rnn_examples ~seed =
  let rng = Rng.create seed in
  Array.init pool (fun _ ->
      [ Tensor.uniform rng [| steps; input_dim |] ~lo:(-1.0) ~hi:1.0 ])

(* {1 serve_cnn_int8} *)

(* Calibration batches run through the float frozen model. *)
let calibration_batches = 4

let setup_cnn ~seed ~examples ~calibration () =
  let m = Convnet.build ~seed in
  let config = Harness.config ~seed () in
  let session = Octf.Session.create ~config m.graph in
  Octf.Session.run_unit session [ m.init ];
  let inputs = [ m.pixels ] and outputs = [ m.logits ] in
  let float_twin = S.freeze_session ~config ~quantize:false ~inputs ~outputs session in
  let t = now () in
  let cal = Octf.Quant_calibration.create () in
  List.iter
    (fun batch ->
      Octf.Quant_calibration.observe_step cal float_twin ~feeds:[ (m.pixels, batch) ]
        ((m.pixels :: m.taps) @ [ m.logits ]))
    calibration;
  let calibrate_ms = (now () -. t) *. 1e3 in
  let islands0 = Layers.counter "octf_quant_islands_total" in
  let t = now () in
  let frozen =
    S.freeze_session ~config ~quantize:true
      ~ranges:(Octf.Quant_calibration.ranges cal) ~inputs ~outputs session
  in
  let freeze_ms = (now () -. t) *. 1e3 in
  let islands = Layers.counter "octf_quant_islands_total" -. islands0 in
  let compile_ms = compile_ms session ~inputs ~outputs in
  let server =
    S.create ~name:"serve_cnn_int8" ~max_batch_size:window ~max_queue_delay
      ~queue_capacity ~session:frozen ~inputs ~outputs ()
  in
  ignore
    (Harness.closed_loop ~max_requests:warmup_requests server ~window
       ~seconds:Float.infinity ~examples);
  {
    frozen;
    server;
    input = m.pixels;
    output = m.logits;
    float_twin = Some float_twin;
    readings = { compile_ms; freeze_ms; calibrate_ms; islands };
  }

(* The served examples, then calibration batches drawn after them from
   the same seeded stream, so calibration sees none of the images the
   agreement check scores. *)
let cnn_inputs ~seed =
  let rng = Rng.create seed in
  let images batch =
    (Octf_data.Synthetic.image_batch rng ~batch ~size:Convnet.side ~channels:1
       ~classes:Convnet.classes)
      .Octf_data.Synthetic.pixels
  in
  let px = Tensor.to_float_array (images pool) in
  let per = Convnet.side * Convnet.side in
  let examples =
    Array.init pool (fun i ->
        [
          Tensor.of_float_array [| Convnet.side; Convnet.side; 1 |]
            (Array.sub px (i * per) per);
        ])
  in
  (examples, List.init calibration_batches (fun _ -> images Convnet.batch))

(* {1 Running and checking} *)

let run_batch session ~input ~output batch =
  match Octf.Session.run ~feeds:[ (input, batch) ] session [ output ] with
  | [ t ] -> t
  | _ -> failwith "serve: expected one fetch"

(* Row [r] of a batched result, without the batch axis. *)
let row t r =
  let shape = Tensor.shape t in
  let inner = Array.sub shape 1 (Array.length shape - 1) in
  let n = Array.fold_left ( * ) 1 inner in
  Tensor.of_float_array inner (Array.sub (Tensor.to_float_array t) (r * n) n)

(* Unbatched answer of every pooled example. *)
let references live examples =
  Array.map
    (fun ex -> row (run_batch live.frozen ~input:live.input ~output:live.output (stack ex)) 0)
    examples

(* A served answer must be bit-identical to its unbatched reference.
   Every int8 activation range is calibrated, so no kernel depends on
   which requests share a batch. *)
let matches refs =
  let want = Array.map Tensor.to_float_array refs in
  fun i outs -> Tensor.to_float_array (List.hd outs) = want.(i)

(* Share of pooled examples whose int8 top-1 matches the float twin's;
   [None] for a model served in float. *)
let top1_agreement live examples refs =
  Option.map
    (fun twin ->
      let agree = ref 0 in
      Array.iteri
        (fun i ex ->
          let f = row (run_batch twin ~input:live.input ~output:live.output (stack ex)) 0 in
          if argmax f = argmax refs.(i) then incr agree)
        examples;
      float_of_int !agree /. float_of_int (Array.length examples))
    live.float_twin

(* The stated top-1 agreement rate of serve_cnn_int8 with its float twin. *)
let min_agreement = 0.9

let run ~name ~micro ~rss_after ~setup ~examples ~seconds ~trace =
  let live, setups, setup_s =
    Harness.repeat_setup ~release:(fun l -> S.shutdown l.server)
      ~summary:(fun l -> l.readings) setup
  in
  let median_of f = Stats.median_list (List.map (fun (_, r) -> f r) setups) in
  let refs = references live examples in
  let stats0 = S.stats live.server in
  let before = Layers.snapshot () in
  let pressure = Host.sample_before () in
  let phase = if trace then seconds /. 2.0 else seconds in
  let served =
    Harness.closed_loop live.server ~check:(matches refs) ~rss_after ~window
      ~seconds:phase ~examples
  in
  let pressure = Host.sample_after pressure in
  let after = Layers.snapshot () in
  let stats1 = S.stats live.server in
  let bad = served.wrong in
  let agreement = top1_agreement live examples refs in
  (* Checks of the run as a whole; each one failed counts as a failed
     operation, on top of every refused or wrong answer. *)
  let run_checks =
    Option.to_list
      (Option.map
         (fun a -> (Printf.sprintf "top1_agreement_vs_float>=%.2f" min_agreement, a >= min_agreement))
         agreement)
    @ Harness.idle_check pressure
  in
  let checks = ("answers_match_unbatched", bad = 0) :: run_checks in
  let failed =
    served.refused + bad + List.length (List.filter (fun (_, ok) -> not ok) run_checks)
  in
  (* Per-layer times are wall time, as the traced steps report them. *)
  let latency_p50_ms = Stats.median served.samples.wall_latencies *. 1e3 in
  let notes =
    ("pressure", Host.pressure_json pressure)
    :: Option.to_list
         (Option.map (fun a -> ("top1_agreement_vs_float", Printf.sprintf "%.4f" a)) agreement)
  in
  let metrics, notes =
    if not trace then
      let metrics, tail_notes =
        Harness.end_to_end ~setup_s ~items_per_op:1.0 served.samples
      in
      (metrics, tail_notes @ notes)
    else begin
      let requests = stats1.S.served - stats0.S.served in
      let batches = stats1.S.batches - stats0.S.batches in
      let mean_batch = Stats.ratio (float_of_int requests) (float_of_int batches) in
      let k = max 1 (int_of_float (Float.round mean_batch)) in
      let batch = stack (List.init k (fun i -> examples.(i mod pool)) |> List.map List.hd) in
      let step () = run_batch live.frozen ~input:live.input ~output:live.output batch in
      let time_ms f = Layers.time_call ~seconds:(seconds /. 8.0) f *. 1e3 in
      let batch_step_ms = time_ms step in
      let readings, traced, trace_file =
        Layers.traced ~name ~seconds:(seconds /. 8.0) (fun () ->
            let options =
              Octf.Session.Run_options.v ~feeds:[ (live.input, batch) ]
                ~collect_stats:true ()
            in
            snd (Octf.Session.run_with_metadata ~options live.frozen [ live.output ]))
      in
      let speedup =
        match live.float_twin with
        | None -> 0.0
        | Some twin ->
            time_ms (fun () -> run_batch twin ~input:live.input ~output:live.output batch)
            /. batch_step_ms
      in
      let step_ms = List.assoc "executor.step_ms" readings in
      ( readings
        @ Layers.per_step ~steps:batches before after
        @ Layers.rates ~items:(float_of_int requests) before after
        @ micro ~k ~seconds:(seconds /. 12.0)
        @ [
            ("session.compile_ms", median_of (fun l -> l.compile_ms));
            ("serving.freeze_ms", median_of (fun l -> l.freeze_ms));
            ("quant_kernels.calibrate_ms", median_of (fun l -> l.calibrate_ms));
            ("quant_kernels.islands", median_of (fun l -> l.islands));
            ("quant_kernels.speedup_vs_float", speedup);
            ("executor.untraced_step_ms", batch_step_ms);
            ("executor.trace_overhead_ms", step_ms -. batch_step_ms);
            ("serving.mean_batch", mean_batch);
            ("serving.requests", float_of_int requests);
            ("serving.batches", float_of_int batches);
            ("serving.batch_step_ms", batch_step_ms);
            ("serving.queue_ms", Stats.queue_ms ~latency_p50_ms ~batch_step_ms);
            ("serving.rejected", float_of_int (stats1.S.rejected - stats0.S.rejected));
            ("serving.failed", float_of_int (stats1.S.failed - stats0.S.failed));
          ],
        [
          ("traced_batch", string_of_int k);
          ("traced_steps", string_of_int traced);
          ("trace_file", trace_file);
        ]
        @ notes )
    end
  in
  S.shutdown live.server;
  { Harness.metrics; attempted = served.attempted; failed; checks; notes }

let run_rnn ~seed ~seconds ~trace =
  let examples = rnn_examples ~seed in
  let micro ~k ~seconds =
    let rng = Rng.create 1 in
    Layers.matmul_bench ~seconds rng ~m:k ~k:(input_dim + units) ~n:(4 * units)
    @ Layers.quant_matmul_bench ~seconds rng ~m:k ~k:(input_dim + units) ~n:(4 * units)
  in
  run ~name:"serve_rnn" ~micro ~rss_after:8000 ~setup:(setup_rnn ~seed ~examples)
    ~examples ~seconds ~trace

let run_cnn_int8 ~seed ~seconds ~trace =
  let examples, calibration = cnn_inputs ~seed in
  let features = Convnet.side / 4 * (Convnet.side / 4) * Convnet.c2 in
  let micro ~k ~seconds =
    let rng = Rng.create 1 in
    Layers.conv_bench ~seconds rng ~batch:k ~side:(Convnet.side / 2) ~cin:Convnet.c1
      ~cout:Convnet.c2 ~ksize:5
    @ Layers.matmul_bench ~seconds rng ~m:k ~k:features ~n:Convnet.hidden
    @ Layers.quant_matmul_bench ~seconds rng ~m:k ~k:features ~n:Convnet.hidden
  in
  run ~name:"serve_cnn_int8" ~micro ~rss_after:2500
    ~setup:(setup_cnn ~seed ~calibration ~examples)
    ~examples ~seconds ~trace
