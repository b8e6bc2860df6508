(* Control flow and dead-value semantics (§3.4). *)

open Octf_tensor
open Octf
module B = Builder

let scalar t = Tensor.flat_get_f t 0

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let run1 b fetch feeds =
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run ~feeds s [ fetch ] with
  | [ v ] -> scalar v
  | _ -> Alcotest.fail "arity"

let test_switch_dead_propagation () =
  (* The untaken Switch branch is dead and poisons downstream nodes; a
     fetch of a dead value errors. *)
  let b = B.create () in
  let pred = B.const b (Tensor.scalar_b true) in
  let x = B.const_f b 1.0 in
  let f, t = B.switch b x pred in
  let dead_side = B.neg b f in
  let live_side = B.neg b t in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  (match Session.run s [ live_side ] with
  | [ v ] -> Alcotest.(check (float 0.)) "live" (-1.0) (scalar v)
  | _ -> Alcotest.fail "arity");
  match Session.run s [ dead_side ] with
  | _ -> Alcotest.fail "expected dead fetch error"
  | exception Session.Run_error _ -> ()

let test_merge_takes_live () =
  let b = B.create () in
  let pred = B.const b (Tensor.scalar_b false) in
  let x = B.const_f b 5.0 in
  let f, t = B.switch b x pred in
  let merged = B.merge b [ B.neg b f; B.mul b t (B.const_f b 100.0) ] in
  Alcotest.(check (float 0.)) "false branch survives" (-5.0)
    (run1 b merged [])

let test_dead_through_control_edge () =
  (* A node control-dependent on a dead node dies too. *)
  let b = B.create () in
  let pred = B.const b (Tensor.scalar_b true) in
  let x = B.const_f b 1.0 in
  let f, _t = B.switch b x pred in
  (* Control deadness is node-level: depend on an Identity of the dead
     branch, not on the (always partially live) Switch node itself. *)
  let fid = B.identity b f in
  let gated =
    B.op b
      ~control_inputs:[ fid ]
      ~op_type:"Const"
      ~attrs:[ ("value", Attr.Tensor (Tensor.scalar_f 3.0)) ]
      []
  in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ B.output gated ] with
  | _ -> Alcotest.fail "expected dead"
  | exception Session.Run_error _ -> ()

let test_nested_cond () =
  let b = B.create () in
  let p1 = B.placeholder b Dtype.Bool in
  let p2 = B.placeholder b Dtype.Bool in
  let x = B.const_f b 1.0 in
  let result =
    B.cond b p1 ~inputs:[ x ]
      ~then_:(fun b ins ->
        B.cond b p2 ~inputs:ins
          ~then_:(fun b ins -> [ B.mul b (List.hd ins) (B.const_f b 10.0) ])
          ~else_:(fun b ins -> [ B.mul b (List.hd ins) (B.const_f b 20.0) ]))
      ~else_:(fun b ins -> [ B.neg b (List.hd ins) ])
  in
  let out = List.hd result in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let run p1v p2v =
    match
      Session.run
        ~feeds:[ (p1, Tensor.scalar_b p1v); (p2, Tensor.scalar_b p2v) ]
        s [ out ]
    with
    | [ v ] -> scalar v
    | _ -> Alcotest.fail "arity"
  in
  Alcotest.(check (float 0.)) "tt" 10.0 (run true true);
  Alcotest.(check (float 0.)) "tf" 20.0 (run true false);
  Alcotest.(check (float 0.)) "ft" (-1.0) (run false true)

let test_while_loop_multiple_vars () =
  (* Fibonacci via a two-variable loop. *)
  let b = B.create () in
  let a0 = B.const_f b 0.0 and b0 = B.const_f b 1.0 in
  let i0 = B.const_f b 0.0 in
  let limit = B.const_f b 9.5 in
  let results =
    B.while_loop b ~invariants:[ limit ]
      ~cond:(fun b vars ->
        match vars with
        | [ i; _; _; lim ] -> B.less b i lim
        | _ -> assert false)
      ~body:(fun b vars ->
        match vars with
        | [ i; x; y; _lim ] ->
            [ B.add b i (B.ones_like b i); y; B.add b x y ]
        | _ -> assert false)
      [ i0; a0; b0 ]
  in
  let fib = List.nth results 1 in
  Alcotest.(check (float 0.)) "fib(10)" 55.0 (run1 b fib [])

let test_nested_while () =
  (* sum_{i=1..3} sum_{j=1..i} 1 = 6, via nested loops. *)
  let b = B.create () in
  let i0 = B.const_f b 1.0 and total0 = B.const_f b 0.0 in
  let three = B.const_f b 3.5 in
  let results =
    B.while_loop b ~name:"outer" ~invariants:[ three ]
      ~cond:(fun b vars ->
        match vars with
        | [ i; _; lim ] -> B.less b i lim
        | _ -> assert false)
      ~body:(fun b vars ->
        match vars with
        | [ i; total; _lim ] ->
            let inner =
              B.while_loop b ~name:"inner" ~invariants:[ i ]
                ~cond:(fun b vars ->
                  match vars with
                  | [ j; _; iv ] -> B.less b j iv
                  | _ -> assert false)
                ~body:(fun b vars ->
                  match vars with
                  | [ j; acc; _iv ] ->
                      [ B.add b j (B.ones_like b j);
                        B.add b acc (B.ones_like b acc) ]
                  | _ -> assert false)
                [ B.ones_like b i; B.zeros_like b total ]
            in
            let inner_count =
              B.add b (List.nth inner 1) (B.ones_like b total)
            in
            [ B.add b i (B.ones_like b i); B.add b total inner_count ]
        | _ -> assert false)
      [ i0; total0 ]
  in
  let total = List.nth results 1 in
  (* i = 1: inner runs 0 times (j=1 < 1 false) + 1; i = 2: 1 + 1;
     i = 3: 2 + 1 -> total = 1 + 2 + 3 = 6. *)
  Alcotest.(check (float 0.)) "nested sum" 6.0 (run1 b total [])

let test_frame_crossing_rejected () =
  (* A constant created inside the body (frame-crossing edge) is a
     compile-time error with a helpful message. *)
  let b = B.create () in
  let x = B.const_f b 0.0 in
  let results =
    B.while_loop b
      ~cond:(fun b vars -> B.less b (List.hd vars) (B.const_f b 3.0))
      ~body:(fun b vars -> [ B.add b (List.hd vars) (B.const_f b 1.0) ])
      [ x ]
  in
  let out = List.hd results in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ out ] with
  | _ -> Alcotest.fail "expected frame-crossing error"
  | exception Session.Run_error f ->
      Alcotest.(check bool) "mentions invariants" true
        (contains (Step_failure.to_string f) "invariants")

let test_loop_zero_iterations () =
  let b = B.create () in
  let i0 = B.const_f b 10.0 in
  let limit = B.const_f b 5.0 in
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
  Alcotest.(check (float 0.)) "initial value exits" 10.0
    (run1 b (List.hd results) [])

let test_reproducible_random_steps () =
  let b = B.create () in
  let r = B.random_uniform b ~lo:0.0 ~hi:1.0 [| 4 |] in
  let sum = B.reduce_sum b r in
  let s1 = Session.create ~config:(Session.Config.v ~seed:5 ()) (B.graph b) in
  let s2 = Session.create ~config:(Session.Config.v ~seed:5 ()) (B.graph b) in
  let v1 = List.hd (Session.run s1 [ sum ]) in
  let v2 = List.hd (Session.run s2 [ sum ]) in
  Alcotest.(check (float 0.)) "same seed same draw" (scalar v1) (scalar v2);
  let v3 = List.hd (Session.run s1 [ sum ]) in
  Alcotest.(check bool) "later step differs" true (scalar v3 <> scalar v1)

(* A random op draws from the stream seeded with seed + step * 1_000_003
   + node id * 7_919 + iteration * 104_729: step 2 of a loop that adds a
   fresh draw per iteration fetches exactly the sum of those streams'
   draws, iteration by iteration. *)
let test_random_stream_per_step_and_iteration () =
  let b = B.create () in
  let draw = ref None in
  let results =
    B.while_loop b ~invariants:[ B.const_f b 3.0 ]
      ~cond:(fun b vars ->
        match vars with
        | [ i; _; limit ] -> B.less b i limit
        | _ -> assert false)
      ~body:(fun b vars ->
        match vars with
        | [ i; acc; _ ] ->
            (* the control edge puts the draw in the loop's frame *)
            let r =
              B.with_control_dependencies b [ i ] (fun () ->
                  B.random_uniform b ~lo:0.0 ~hi:1.0 [| 4 |])
            in
            draw := Some r.B.node.Node.id;
            [ B.add b i (B.ones_like b i); B.add b acc r ]
        | _ -> assert false)
      [ B.const_f b 0.0; B.const b (Tensor.zeros Dtype.F32 [| 4 |]) ]
  in
  let acc = List.nth results 1 in
  let seed = 11 in
  let s =
    Session.create ~config:(Session.Config.v ~seed ~passes:[] ()) (B.graph b)
  in
  let run () =
    match Session.run s [ acc ] with
    | [ v ] -> v
    | _ -> Alcotest.fail "arity"
    | exception Session.Run_error f -> Alcotest.fail (Step_failure.to_string f)
  in
  ignore (run ());
  let got = run () in
  let id = Option.get !draw in
  let expected =
    List.fold_left
      (fun acc it ->
        Tensor_ops.add acc
          (Tensor.uniform
             (Rng.create
                (seed + (2 * 1_000_003) + (id * 7_919) + (it * 104_729)))
             [| 4 |] ~lo:0.0 ~hi:1.0))
      (Tensor.zeros Dtype.F32 [| 4 |])
      [ 0; 1; 2 ]
  in
  Alcotest.(check (array (float 0.0)))
    "step 2, iterations 0-2" (Tensor.to_float_array expected)
    (Tensor.to_float_array got)

let test_kernel_error_reporting () =
  let b = B.create () in
  let a = B.const b (Tensor.of_float_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |]) in
  let bad = B.matmul b a (B.const b (Tensor.of_float_array [| 3; 1 |] [| 1.; 2.; 3. |])) in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ bad ] with
  | _ -> Alcotest.fail "expected kernel error"
  | exception Session.Run_error f ->
      Alcotest.(check bool) "names the op" true
        (contains (Step_failure.to_string f) "MatMul")

(* ------------------- memory-planner alias safety ------------------- *)

(* Feeding and fetching pin a buffer: no kernel may be granted an
   in-place write over it, whatever the refcounts say. The checks are
   physical (buffer identity), not just value equality. *)

let test_fed_never_aliased () =
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 4 |] Dtype.F32 in
  (* relu declares May_alias(0,0) and x has exactly one consumer — the
     planner must still refuse because x is fed. *)
  let y = B.relu b x in
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~memory_planning:true ())
      (B.graph b)
  in
  let fed = Tensor.of_float_array [| 4 |] [| -1.0; 2.0; -3.0; 4.0 |] in
  let before = Tensor.copy fed in
  match Session.run ~feeds:[ (x, fed) ] s [ y ] with
  | [ got ] ->
      Alcotest.(check bool) "distinct buffers" false
        (Tensor.float_buffer got == Tensor.float_buffer fed);
      Alcotest.(check bool) "fed tensor untouched" true
        (Tensor.equal fed before)
  | _ -> Alcotest.fail "arity"

let test_fetched_never_aliased () =
  let b = B.create () in
  let c = B.const b (Tensor.of_float_array [| 4 |] [| -1.0; 2.0; -3.0; 4.0 |]) in
  let a = B.square b c in
  let y = B.relu b a in
  (* [a] is fetched, so relu must not reuse its buffer even though it is
     a's only downstream consumer. *)
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~memory_planning:true ())
      (B.graph b)
  in
  match Session.run s [ a; y ] with
  | [ av; yv ] ->
      Alcotest.(check bool) "distinct buffers" false
        (Tensor.float_buffer av == Tensor.float_buffer yv);
      Alcotest.(check (float 0.)) "a = c^2" 1.0 (Tensor.flat_get_f av 0);
      Alcotest.(check (float 0.)) "y = relu a" 1.0 (Tensor.flat_get_f yv 0)
  | _ -> Alcotest.fail "arity"

let test_variable_read_never_aliased () =
  let b = B.create () in
  let v = B.variable b ~dtype:Dtype.F32 ~shape:[| 3 |] () in
  let init =
    B.assign b v (B.const b (Tensor.of_float_array [| 3 |] [| 1.0; -2.0; 3.0 |]))
  in
  let r = B.read b v in
  (* Read's output is the variable's backing tensor — not a fresh
     buffer — so relu must never be granted an in-place write on it. *)
  let y = B.relu b r in
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~memory_planning:true ())
      (B.graph b)
  in
  Session.run_unit s [ init ];
  (match Session.run s [ r; y ] with
  | [ rv; yv ] ->
      Alcotest.(check bool) "distinct buffers" false
        (Tensor.float_buffer rv == Tensor.float_buffer yv)
  | _ -> Alcotest.fail "arity");
  match Session.run s [ r ] with
  | [ rv ] ->
      Alcotest.(check bool) "variable unchanged" true
        (Tensor.equal rv (Tensor.of_float_array [| 3 |] [| 1.0; -2.0; 3.0 |]))
  | _ -> Alcotest.fail "arity"

let test_diamond_never_reuses_source () =
  (* x feeds two consumers (x -> a, x -> b, a + b): neither branch may
     write into x's buffer — its refcount is 2 when each stages. *)
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 4 |] Dtype.F32 in
  let a = B.square b x in
  let b' = B.neg b x in
  let sum = B.add b a b' in
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~memory_planning:true ())
      (B.graph b)
  in
  let fed = Tensor.of_float_array [| 4 |] [| 1.0; 2.0; 3.0; 4.0 |] in
  let before = Tensor.copy fed in
  match Session.run ~feeds:[ (x, fed) ] s [ sum ] with
  | [ got ] ->
      Alcotest.(check bool) "x's buffer not reused" false
        (Tensor.float_buffer got == Tensor.float_buffer fed);
      Alcotest.(check bool) "x untouched" true (Tensor.equal fed before);
      Alcotest.(check (float 1e-6)) "x^2 - x" 2.0 (Tensor.flat_get_f got 1)
  | _ -> Alcotest.fail "arity"

let mem_live_bytes () =
  Option.value ~default:0.0
    (Metrics.find_value Metrics.default "octf_mem_live_bytes")

let test_switch_merge_refcounts_balance () =
  (* Refcounts must hit zero exactly once per endpoint even when Switch
     kills a branch and Merge fires on the first live input: the live
     gauge returning exactly to its pre-step level catches both a leak
     (ends high) and a double-drop (ends low). *)
  let b = B.create () in
  let pred = B.placeholder b Dtype.Bool in
  let x = B.const b (Tensor.of_float_array [| 64 |] (Array.make 64 2.0)) in
  let big = B.square b x in
  let f, t = B.switch b big pred in
  let merged = B.merge b [ B.neg b f; B.relu b t ] in
  let out = B.reduce_sum b merged in
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~memory_planning:true ())
      (B.graph b)
  in
  let baseline = mem_live_bytes () in
  List.iter
    (fun p ->
      let expect = if p then 256.0 else -256.0 in
      (match Session.run ~feeds:[ (pred, Tensor.scalar_b p) ] s [ out ] with
      | [ v ] -> Alcotest.(check (float 1e-3)) "value" expect (scalar v)
      | _ -> Alcotest.fail "arity");
      Alcotest.(check (float 0.)) "live gauge back to baseline" baseline
        (mem_live_bytes ()))
    [ true; false; true; false ]

(* ------------------------- per-endpoint feeds ------------------------ *)

let split_graph () =
  let b = B.create () in
  let x = B.const b (Tensor.of_float_array [| 2 |] [| 5.0; 6.0 |]) in
  match B.split b ~name:"parts" x ~axis:0 ~num:2 with
  | [ p0; p1 ] -> (b, p0, p1)
  | _ -> Alcotest.fail "split arity"

let test_feeds_per_endpoint () =
  (* Each fed output of a multi-output node keeps its own value. *)
  let b, p0, p1 = split_graph () in
  let sum = B.add b p0 p1 in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let one = Tensor.of_float_array [| 1 |] [| 1.0 |] in
  let two = Tensor.of_float_array [| 1 |] [| 2.0 |] in
  match Session.run ~feeds:[ (p0, one); (p1, two) ] s [ p0; p1; sum ] with
  | [ a; c; d ] ->
      Alcotest.(check (float 0.)) "parts:0" 1.0 (scalar a);
      Alcotest.(check (float 0.)) "parts:1" 2.0 (scalar c);
      Alcotest.(check (float 0.)) "sum" 3.0 (scalar d)
  | _ -> Alcotest.fail "arity"

let test_unfed_output_of_fed_node () =
  (* Feeding parts:0 alone leaves parts:1 without a value: reading it,
     by a fetch or through a consumer, is a malformed graph. *)
  let one = Tensor.of_float_array [| 1 |] [| 1.0 |] in
  List.iter
    (fun consume ->
      let b, p0, p1 = split_graph () in
      let fetch = if consume then B.neg b p1 else p1 in
      let s =
        Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
      in
      match Session.run ~feeds:[ (p0, one) ] s [ fetch ] with
      | _ -> Alcotest.fail "expected an unfed-endpoint error"
      | exception Session.Run_error f ->
          (match f.Step_failure.cause with
          | Step_failure.Invalid_graph _ -> ()
          | _ -> Alcotest.failf "wrong cause: %s" (Step_failure.to_string f));
          Alcotest.(check bool) "names the endpoint" true
            (contains (Step_failure.to_string f) "parts:1"))
    [ false; true ]

(* ------------------------ in-place grant policy ------------------------ *)

let grants_total () =
  Option.value ~default:0.0
    (Metrics.find_value Metrics.default "octf_mem_inplace_grants_total")

(* relu, neg, tanh and sigmoid each take the one reader's grant on the
   buffer their predecessor just allocated; square reads a value it does
   not own (a constant or a loop variable), so it gets none. *)
let chain b x = B.sigmoid b (B.tanh b (B.neg b (B.relu b (B.square b x))))
let chain_grants = 4

let test_inplace_grants_counted () =
  let input = Tensor.of_float_array [| 64 |] (Array.init 64 float_of_int) in
  let straight () =
    let b = B.create () in
    (b, chain b (B.const b input))
  in
  let trips = 3 in
  let looped () =
    let b = B.create () in
    let one = B.const_f b 1.0 and limit = B.const_f b (float_of_int trips) in
    let exits =
      B.while_loop b ~invariants:[ one; limit ]
        ~cond:(fun b vars ->
          match vars with
          | [ i; _; _; lim ] -> B.less b i lim
          | _ -> assert false)
        ~body:(fun b vars ->
          match vars with
          | [ i; x; one; _ ] -> [ B.add b i one; chain b x ]
          | _ -> assert false)
        [ B.const_f b 0.0; B.const b input ]
    in
    (b, List.nth exits 1)
  in
  List.iter
    (fun (label, build, per_step) ->
      let run planning =
        let b, out = build () in
        let s =
          Session.create
            ~config:(Session.Config.v ~passes:[] ~memory_planning:planning ())
            (B.graph b)
        in
        ignore (Session.run s [ out ]);
        let before = grants_total () in
        let got = Session.run s [ out ] in
        (got, grants_total () -. before)
      in
      let on, granted = run true in
      let off, not_granted = run false in
      Alcotest.(check (float 0.)) (label ^ ": grants, planning on")
        (float_of_int per_step) granted;
      Alcotest.(check (float 0.)) (label ^ ": grants, planning off") 0.0
        not_granted;
      Alcotest.(check bool) (label ^ ": bit-identical") true
        (List.for_all2 Tensor.equal on off))
    [
      ("straight chain", straight, chain_grants);
      ("loop body", looped, trips * chain_grants);
    ]

let suite =
  [
    Alcotest.test_case "switch dead propagation" `Quick
      test_switch_dead_propagation;
    Alcotest.test_case "fed never aliased" `Quick test_fed_never_aliased;
    Alcotest.test_case "random draws follow seed, step and iteration" `Quick
      test_random_stream_per_step_and_iteration;
    Alcotest.test_case "fetched never aliased" `Quick
      test_fetched_never_aliased;
    Alcotest.test_case "variable read never aliased" `Quick
      test_variable_read_never_aliased;
    Alcotest.test_case "diamond never reuses source" `Quick
      test_diamond_never_reuses_source;
    Alcotest.test_case "switch/merge refcounts balance" `Quick
      test_switch_merge_refcounts_balance;
    Alcotest.test_case "merge takes live" `Quick test_merge_takes_live;
    Alcotest.test_case "dead control edge" `Quick test_dead_through_control_edge;
    Alcotest.test_case "nested cond" `Quick test_nested_cond;
    Alcotest.test_case "while multiple vars" `Quick
      test_while_loop_multiple_vars;
    Alcotest.test_case "nested while" `Quick test_nested_while;
    Alcotest.test_case "frame crossing rejected" `Quick
      test_frame_crossing_rejected;
    Alcotest.test_case "zero-iteration loop" `Quick test_loop_zero_iterations;
    Alcotest.test_case "reproducible randomness" `Quick
      test_reproducible_random_steps;
    Alcotest.test_case "kernel error reporting" `Quick
      test_kernel_error_reporting;
    Alcotest.test_case "feeds are per endpoint" `Quick test_feeds_per_endpoint;
    Alcotest.test_case "unfed output of a fed node" `Quick
      test_unfed_output_of_fed_node;
    Alcotest.test_case "in-place grants counted" `Quick
      test_inplace_grants_counted;
  ]
