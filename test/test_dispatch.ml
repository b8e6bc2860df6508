(* The executor's per-node path: what it allocates, what it counts, and
   where it still notices a cancelled step. Counters are published once
   per step, so each check reads them between steps. *)

open Octf_tensor
open Octf
module B = Builder

let metric ?labels name =
  Option.value ~default:0.0 (Metrics.find_value ?labels Metrics.default name)

let kernels_total () = metric "octf_executor_kernels_total"

let run_traced s ?(feeds = []) fetches =
  let options = Session.Run_options.v ~trace:true ~feeds () in
  let results, md = Session.run_with_metadata ~options s fetches in
  (results, Tracer.events (Option.get md.Session.Run_metadata.tracer))

(* ------------------------- allocation per node ------------------------ *)

let identity_chain n =
  let b = B.create () in
  let x = ref (B.const_f b 0.0) in
  for _ = 1 to n do
    x := B.identity b !x
  done;
  (b, !x)

(* Minor words of one inline step of an [n]-node Identity chain; the
   fewest of a few runs, so a systhread that allocates meanwhile on this
   domain does not count. *)
let step_words n =
  let b, out = identity_chain n in
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~scheduler:Scheduler.Inline ())
      (B.graph b)
  in
  ignore (Session.run s [ out ]);
  let best = ref infinity in
  for _ = 1 to 5 do
    let w0 = Gc.minor_words () in
    ignore (Session.run s [ out ]);
    best := Float.min !best (Gc.minor_words () -. w0)
  done;
  !best

(* A dispatched Identity allocates its task, its ready-queue cell, its
   inputs, its kernel context and its outputs (27 words), and each plan
   node costs its step's per-iteration tables 7 more: 34 words in all.
   The closures and metric updates this path used to build came to
   about 114. *)
let max_words_per_node = 40.0

let test_null_op_words () =
  let per_node = (step_words 600 -. step_words 100) /. 500.0 in
  if per_node > max_words_per_node then
    Alcotest.failf "%.1f minor words per null op (bound %.0f)" per_node
      max_words_per_node

(* ---------------------------- kernel counts --------------------------- *)

(* A 3-trip while loop, a cond whose untaken branch is dead, and a
   straight tail. *)
let control_flow_graph () =
  let b = B.create () in
  let pred = B.placeholder b Dtype.Bool in
  let exits =
    B.while_loop b
      ~invariants:[ B.const_f b 1.0; B.const_f b 3.0 ]
      ~cond:(fun b vars ->
        match vars with
        | [ i; _; _; lim ] -> B.less b i lim
        | _ -> assert false)
      ~body:(fun b vars ->
        match vars with
        | [ i; x; one; _ ] -> [ B.add b i one; B.mul b x (B.neg b x) ]
        | _ -> assert false)
      [ B.const_f b 0.0; B.const_f b 1.5 ]
  in
  let picked =
    B.cond b pred ~inputs:[ List.nth exits 1 ]
      ~then_:(fun b xs -> List.map (B.neg b) xs)
      ~else_:(fun b xs -> List.map (B.square b) xs)
  in
  (b, pred, B.add b (List.hd picked) (B.const_f b 2.0))

let check_counts label steps =
  let before = kernels_total () in
  let events = List.concat_map (fun run -> snd (run ())) steps in
  Alcotest.(check (float 0.))
    (label ^ ": octf_executor_kernels_total rises by the kernels run")
    (float_of_int (List.length events))
    (kernels_total () -. before)

let test_kernels_counted () =
  let b, pred, out = control_flow_graph () in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let step p () = run_traced s ~feeds:[ (pred, Tensor.scalar_b p) ] [ out ] in
  check_counts "loop and cond" [ step true; step false; step true ];
  (* Untraced steps count the same kernels as traced ones. *)
  let _, events = step false () in
  let before = kernels_total () in
  ignore (Session.run ~feeds:[ (pred, Tensor.scalar_b false) ] s [ out ]);
  Alcotest.(check (float 0.)) "untraced step counts alike"
    (float_of_int (List.length events))
    (kernels_total () -. before);
  (* An in-process ps/worker step: Sends and armed Recvs count too. *)
  let b = B.create () in
  let worker f = B.with_device b "/job:worker/task:0" f in
  let x = worker (fun () -> B.placeholder b Dtype.F32) in
  let m = B.with_device b "/job:ps/task:0" (fun () -> B.neg b x) in
  let y = worker (fun () -> B.square b m) in
  let jobs = [ ("ps", 1, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ] in
  let s = Cluster.session (Cluster.create ~jobs) (B.graph b) in
  let step () = run_traced s ~feeds:[ (x, Tensor.scalar_f 3.0) ] [ y ] in
  let _, events = step () in
  Alcotest.(check bool) "a Recv is traced" true
    (List.exists (fun e -> e.Tracer.op_type = "Recv") events);
  check_counts "partitioned" [ step; step ]

let test_op_seconds_sum () =
  let b, pred, out = control_flow_graph () in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let ops = [ "Add"; "Mul"; "Neg"; "Less"; "Merge"; "Switch" ] in
  let seconds op =
    metric ~labels:[ ("op_type", op) ] "octf_executor_op_seconds_total"
  in
  let before = List.map seconds ops in
  let _, events = run_traced s ~feeds:[ (pred, Tensor.scalar_b true) ] [ out ] in
  List.iter2
    (fun op before ->
      let traced =
        List.fold_left
          (fun acc e ->
            if e.Tracer.op_type = op then acc +. e.Tracer.duration else acc)
          0.0 events
      in
      Alcotest.(check (float 1e-9))
        (op ^ ": op seconds equal the traced kernels'")
        traced
        (seconds op -. before))
    ops before

(* ------------------------- live and peak bytes ------------------------ *)

let test_live_and_peak () =
  let b = B.create () in
  let x = B.const b (Tensor.of_float_array [| 4096 |] (Array.make 4096 0.5)) in
  let y = B.relu b (B.neg b (B.square b x)) in
  let p = B.placeholder b Dtype.F32 in
  let out = B.reduce_sum b (B.add b y p) in
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~memory_planning:true ())
      (B.graph b)
  in
  let live () = metric "octf_mem_live_bytes" in
  let baseline = live () in
  let feeds = [ (p, Tensor.scalar_f 1.0) ] in
  let _, events = run_traced s ~feeds [ out ] in
  Alcotest.(check (float 0.)) "live back to baseline after a step" baseline
    (live ());
  let planner_peak =
    List.fold_left (fun acc e -> max acc e.Tracer.peak_bytes) 0 events
  in
  Alcotest.(check bool) "the step's planner peak is nonzero" true
    (planner_peak >= 4096 * 4);
  Alcotest.(check bool) "octf_mem_peak_bytes covers the step's peak" true
    (metric "octf_mem_peak_bytes" >= float_of_int planner_peak);
  (* A failing Add (shapes [4096] and [3]) leaves live bytes behind
     mid-step; the step's end takes them back. *)
  let bad = [ (p, Tensor.of_float_array [| 3 |] [| 1.0; 2.0; 3.0 |]) ] in
  (match Session.run ~feeds:bad s [ out ] with
  | _ -> Alcotest.fail "expected a shape failure"
  | exception Session.Run_error _ -> ());
  Alcotest.(check (float 0.)) "live back to baseline after a failed step"
    baseline (live ())

(* --------------------------- cancellation ----------------------------- *)

(* [Stop] fires the step's parent token (how depends on the test) and
   returns its input; [Count] counts its runs. *)
let stop = ref (fun () -> ())
let counted = Atomic.make 0

let () =
  Kernel.register ~op_type:"TestDispatchStop" (fun ctx ->
      !stop ();
      [| ctx.Kernel.inputs.(0) |]);
  Kernel.register ~op_type:"TestDispatchCount" (fun ctx ->
      Atomic.incr counted;
      [| ctx.Kernel.inputs.(0) |])

let unary b op_type x = B.output (B.op b ~op_type [ x ])

let check_stopped label ?deadline ~fire ~expect () =
  let b = B.create () in
  let x = unary b "TestDispatchStop" (B.const_f b 1.0) in
  let out = unary b "TestDispatchCount" (unary b "TestDispatchCount" x) in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let parent = Cancel.create ?deadline () in
  Fun.protect ~finally:(fun () -> Cancel.complete parent) @@ fun () ->
  stop := fire parent;
  Atomic.set counted 0;
  let options = Session.Run_options.v ~cancel:parent () in
  (match Session.run_with_metadata ~options s [ out ] with
  | _ -> Alcotest.failf "%s: the step ran to its end" label
  | exception Session.Run_error f ->
      if not (expect f.Step_failure.cause) then
        Alcotest.failf "%s: wrong cause %s" label (Step_failure.to_string f));
  Alcotest.(check int) (label ^ ": no node after the stop ran") 0
    (Atomic.get counted)

let test_cancel_mid_step () =
  (* Another thread cancels the parent token; the step's own token fires
     through the parent's waker, on that thread. *)
  check_stopped "another thread"
    ~fire:(fun parent () ->
      Thread.join
        (Thread.create (fun () -> Cancel.cancel parent ~reason:"stop") ()))
    ~expect:(function Step_failure.Cancelled _ -> true | _ -> false)
    ();
  (* The parent's deadline passes while the kernel sleeps; only the timer
     thread's expiry reaches the step's token (it has no deadline of its
     own). *)
  check_stopped "timer thread" ~deadline:0.02
    ~fire:(fun _ () -> Thread.delay 0.1)
    ~expect:(function Step_failure.Deadline_exceeded _ -> true | _ -> false)
    ()

(* ------------------------- recycled uint8 codes ----------------------- *)

let test_byte_bins () =
  let b = Bytes.create 2048 in
  Buffer_pool.release_bytes b;
  Alcotest.(check bool) "a released byte buffer comes back" true
    (Buffer_pool.alloc_bytes 2048 == b);
  Alcotest.(check bool) "once" false (Buffer_pool.alloc_bytes 2048 == b);
  (* Bytes count against the pool's one bound. *)
  let limit = Option.value (Env.get Buffer_pool.env) ~default:256 in
  Buffer_pool.set_limit_mb 0;
  Fun.protect ~finally:(fun () -> Buffer_pool.set_limit_mb limit) @@ fun () ->
  let evictions () = (Buffer_pool.stats ()).Buffer_pool.evictions in
  let before = evictions () in
  Buffer_pool.release_bytes b;
  Alcotest.(check int) "over the bound: evicted" (before + 1) (evictions ());
  Alcotest.(check bool) "and not pooled" false
    (Buffer_pool.alloc_bytes 2048 == b)

let test_codes_recycled () =
  let shape = [| 1; 32; 32; 4 |] in
  let build planning =
    let b = B.create () in
    let x = B.placeholder b ~shape Dtype.F32 in
    let codes, lo, hi = B.quantize_range b ~lo:(-1.0) ~hi:1.0 x in
    let pool v = B.max_pool b ~ksize:(2, 2) ~strides:(2, 2) ~padding:`Valid v in
    (* Two 1,024-byte codes tensors: the first dies inside the step, the
       second reaches the client through a retaining Identity. *)
    let dropped = B.dequantize b (pool codes) lo hi in
    let retained = B.identity b (pool codes) in
    let s =
      Session.create
        ~config:(Session.Config.v ~passes:[] ~memory_planning:planning ())
        (B.graph b)
    in
    fun k ->
      let input =
        Tensor.of_float_array shape
          (Array.init 4096 (fun i -> Float.sin (float_of_int ((i * 7) + k))))
      in
      Session.run ~feeds:[ (x, input) ] s [ codes; retained; dropped ]
  in
  let run = build true and reference = build false in
  let hits () = (Buffer_pool.stats ()).Buffer_pool.hits in
  let steps = List.init 6 (fun k -> k) in
  let kept = ref [] and hits0 = ref 0 in
  List.iter
    (fun k ->
      if k = 1 then hits0 := hits ();
      (* The reference runs first: it takes what the previous step gave
         back to the pool, and overwrites it. *)
      let expect = reference k in
      let got = run k in
      Alcotest.(check bool) "bit-identical to planning off" true
        (List.for_all2 Tensor.equal got expect);
      (* Every codes tensor a client got is its own buffer, and keeps
         its bytes while later steps run. *)
      List.iter
        (fun t ->
          if Tensor.dtype t = Dtype.U8 then begin
            let buf = Tensor.byte_buffer t in
            Alcotest.(check bool)
              "a fetched codes buffer is never handed out again" false
              (List.exists (fun (b, _) -> b == buf) !kept);
            kept := (buf, Bytes.copy buf) :: !kept
          end)
        got;
      List.iter
        (fun (buf, copy) ->
          Alcotest.(check bool) "fetched codes unchanged" true
            (Bytes.equal buf copy))
        !kept)
    steps;
  Alcotest.(check bool) "the dropped codes buffer is recycled" true
    (hits () - !hits0 >= List.length steps - 1)

let suite =
  [
    Alcotest.test_case "a null op allocates a bounded number of words" `Quick
      test_null_op_words;
    Alcotest.test_case "kernels_total rises by the kernels run" `Quick
      test_kernels_counted;
    Alcotest.test_case "op seconds equal the traced kernels'" `Quick
      test_op_seconds_sum;
    Alcotest.test_case "live bytes return, peak covers the step" `Quick
      test_live_and_peak;
    Alcotest.test_case "a token fired mid-step stops the next node" `Quick
      test_cancel_mid_step;
    Alcotest.test_case "byte bins share the pool's bound" `Quick
      test_byte_bins;
    Alcotest.test_case "codes buffers recycled without aliasing" `Quick
      test_codes_recycled;
  ]
