open Octf_tensor
open Octf
module B = Builder

let scalar t = Tensor.flat_get_f t 0

let test_step_caching () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.neg b x in
  let z = B.abs b x in
  let s = Session.create (B.graph b) in
  let feed v = [ (x, Tensor.scalar_f v) ] in
  ignore (Session.run ~feeds:(feed 1.0) s [ y ]);
  ignore (Session.run ~feeds:(feed 2.0) s [ y ]);
  Alcotest.(check int) "one cached step" 1 (Session.cached_steps s);
  ignore (Session.run ~feeds:(feed 1.0) s [ z ]);
  Alcotest.(check int) "distinct fetch, new step" 2 (Session.cached_steps s);
  ignore (Session.run ~feeds:(feed 1.0) s [ y; z ]);
  Alcotest.(check int) "combined fetch, third step" 3 (Session.cached_steps s)

let test_pruning_skips_unrelated () =
  (* Fetching y must not execute an unrelated failing subgraph. *)
  let b = B.create () in
  let y = B.neg b (B.const_f b 2.0) in
  let boom = B.placeholder b ~name:"never_fed" Dtype.F32 in
  let _dangerous = B.neg b boom in
  let s = Session.create (B.graph b) in
  match Session.run s [ y ] with
  | [ v ] -> Alcotest.(check (float 0.)) "pruned" (-2.0) (scalar v)
  | _ -> Alcotest.fail "arity"

let test_unfed_placeholder_errors () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.neg b x in
  let s = Session.create (B.graph b) in
  match Session.run s [ y ] with
  | _ -> Alcotest.fail "expected error"
  | exception Session.Run_error _ -> ()

let test_fetch_resource_errors () =
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[||] () in
  let s = Session.create (B.graph b) in
  match Session.run s [ v ] with
  | _ -> Alcotest.fail "expected error"
  | exception Session.Run_error _ -> ()

let test_target_style_fetch () =
  (* Fetching a NoOp group runs it and returns a placeholder scalar. *)
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[||] () in
  let init = B.assign b v (B.const_f b 1.0) in
  let bump = B.assign_add b v (B.const_f b 1.0) in
  let group = B.group b [ bump ] in
  let r = B.read b v in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  (match Session.run s [ r; group ] with
  | [ value; _dummy ] ->
      (* The group runs in the same step; read may see before or after,
         but after this call the variable must be 2. *)
      ignore value
  | _ -> Alcotest.fail "arity");
  match Session.run s [ r ] with
  | [ value ] -> Alcotest.(check (float 0.)) "bumped" 2.0 (scalar value)
  | _ -> Alcotest.fail "arity"

let test_concurrent_steps_share_state () =
  (* Figure 1's concurrency: many threads run increment steps against one
     session; all updates must land. *)
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[||] () in
  let init = B.assign b v (B.const_f b 0.0) in
  let bump = B.assign_add b v (B.const_f b 1.0) in
  let r = B.read b v in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  let threads =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 50 do
              Session.run_unit s [ bump ]
            done)
          ())
  in
  List.iter Thread.join threads;
  match Session.run s [ r ] with
  | [ value ] -> Alcotest.(check (float 0.)) "200 bumps" 200.0 (scalar value)
  | _ -> Alcotest.fail "arity"

let test_multi_fetch_order () =
  let b = B.create () in
  let x = B.const_f b 3.0 in
  let a = B.neg b x and c = B.square b x in
  let s = Session.create (B.graph b) in
  match Session.run s [ c; a ] with
  | [ cv; av ] ->
      Alcotest.(check (float 0.)) "square first" 9.0 (scalar cv);
      Alcotest.(check (float 0.)) "neg second" (-3.0) (scalar av)
  | _ -> Alcotest.fail "arity"

let test_queue_pipeline_through_session () =
  (* Enqueue from one step, dequeue from another (Figure 1). *)
  let b = B.create () in
  let q = B.fifo_queue b ~capacity:4 ~num_components:1 () in
  let input = B.placeholder b Dtype.F32 in
  let enq = B.enqueue b q [ input ] in
  let deq = List.hd (B.dequeue b q ~num_components:1) in
  let s = Session.create (B.graph b) in
  Session.run_unit ~feeds:[ (input, Tensor.scalar_f 11.0) ] s [ enq ];
  Session.run_unit ~feeds:[ (input, Tensor.scalar_f 22.0) ] s [ enq ];
  let v1 = List.hd (Session.run s [ deq ]) in
  let v2 = List.hd (Session.run s [ deq ]) in
  Alcotest.(check (float 0.)) "fifo through steps" 11.0 (scalar v1);
  Alcotest.(check (float 0.)) "fifo through steps 2" 22.0 (scalar v2)

let test_save_restore_through_graph () =
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[| 2 |] () in
  let init =
    B.assign b v (B.const b (Tensor.of_float_array [| 2 |] [| 5.; 6. |]))
  in
  let clobber = B.assign b v (B.const b (Tensor.zeros Dtype.F32 [| 2 |])) in
  let r = B.read b v in
  let filename = B.placeholder b Dtype.String in
  let save = B.save b ~filename [ ("v", r) ] in
  let restored = B.restore b ~filename [ "v" ] in
  let restore_op = B.assign b v (List.hd restored) in
  let s = Session.create (B.graph b) in
  let path = Filename.temp_file "session_ckpt" ".ckpt" in
  let feeds = [ (filename, Tensor.scalar_s path) ] in
  Session.run_unit s [ init ];
  Session.run_unit ~feeds s [ save ];
  Session.run_unit s [ clobber ];
  Session.run_unit ~feeds s [ restore_op ];
  (match Session.run s [ r ] with
  | [ value ] ->
      Alcotest.(check bool) "restored" true
        (Tensor.approx_equal value (Tensor.of_float_array [| 2 |] [| 5.; 6. |]))
  | _ -> Alcotest.fail "arity");
  Sys.remove path

(* Session.Config: one record carries every construction knob, resolved
   config field > OCTF_SCHEDULER (scheduler only) > built-in default. *)
let test_config_resolution () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let _ = B.neg b x in
  let g = B.graph b in
  let s =
    Session.create
      ~config:(Session.Config.v ~scheduler:Scheduler.Pool ~max_in_flight:4 ())
      g
  in
  Alcotest.(check bool) "config scheduler honored" true
    (Session.scheduler s = Scheduler.Pool);
  Alcotest.(check int) "config max_in_flight honored" 4
    (Session.max_in_flight s);
  (* config field, then OCTF_SCHEDULER, then the built-in inline; the
     caller's own setting of the variable is restored afterwards *)
  let saved = Sys.getenv_opt "OCTF_SCHEDULER" in
  let scheduler_with value config =
    Unix.putenv "OCTF_SCHEDULER" value;
    Session.scheduler (Session.create ~config g)
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "OCTF_SCHEDULER" (Option.value saved ~default:""))
    (fun () ->
      let pinned = Session.Config.v ~scheduler:Scheduler.Inline () in
      Alcotest.(check bool) "config field beats the variable" true
        (scheduler_with "pool" pinned = Scheduler.Inline);
      Alcotest.(check bool) "variable beats the default" true
        (scheduler_with "pool" Session.Config.default = Scheduler.Pool);
      Alcotest.(check bool) "unset variable: built-in default" true
        (scheduler_with "" Session.Config.default = Scheduler.Inline);
      Alcotest.check_raises "a bad variable fails loudly"
        (Invalid_argument
           {|OCTF_SCHEDULER="poool": unknown scheduler "poool" (expected inline | serial | pool | parallel)|})
        (fun () -> ignore (scheduler_with "poool" Session.Config.default)));
  (* barrier in the config pins the pipeline to one step *)
  let s2 =
    Session.create
      ~config:(Session.Config.v ~max_in_flight:8 ~barrier:true ())
      g
  in
  Alcotest.(check int) "barrier wins over max_in_flight" 1
    (Session.max_in_flight s2)

let test_config_passes_and_precompile () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.mul b (B.neg b x) (B.const_f b 2.0) in
  let g = B.graph b in
  (* prune-only session via passes:[] behaves like legacy optimize:false *)
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) g in
  (match Session.run ~feeds:[ (x, Tensor.scalar_f 3.0) ] s [ y ] with
  | [ v ] -> Alcotest.(check (float 0.)) "value" (-6.0) (scalar v)
  | _ -> Alcotest.fail "arity");
  (* precompile populates the step cache without running anything *)
  let s2 = Session.create g in
  Alcotest.(check int) "cache empty" 0 (Session.cached_steps s2);
  Session.precompile ~feeds:[ x ] s2 [ y ];
  Alcotest.(check int) "one precompiled step" 1 (Session.cached_steps s2);
  (match Session.run ~feeds:[ (x, Tensor.scalar_f 2.0) ] s2 [ y ] with
  | [ v ] -> Alcotest.(check (float 0.)) "value" (-4.0) (scalar v)
  | _ -> Alcotest.fail "arity");
  Alcotest.(check int) "run hit the precompiled step" 1
    (Session.cached_steps s2)

let suite =
  [
    Alcotest.test_case "step caching" `Quick test_step_caching;
    Alcotest.test_case "config resolution" `Quick test_config_resolution;
    Alcotest.test_case "config passes + precompile" `Quick
      test_config_passes_and_precompile;
    Alcotest.test_case "pruning" `Quick test_pruning_skips_unrelated;
    Alcotest.test_case "unfed placeholder" `Quick test_unfed_placeholder_errors;
    Alcotest.test_case "fetch resource errors" `Quick
      test_fetch_resource_errors;
    Alcotest.test_case "target-style fetch" `Quick test_target_style_fetch;
    Alcotest.test_case "concurrent steps" `Quick
      test_concurrent_steps_share_state;
    Alcotest.test_case "multi fetch order" `Quick test_multi_fetch_order;
    Alcotest.test_case "queue pipeline" `Quick
      test_queue_pipeline_through_session;
    Alcotest.test_case "save/restore in graph" `Quick
      test_save_restore_through_graph;
  ]
