(* Scheduler policies: the domain-pool executor must be observationally
   identical to the inline loop (bit-identical fetches), and shared
   state must survive concurrent steps without tearing. *)

open Octf_tensor
open Octf
module B = Builder

(* Run the same builder function through a fresh session per policy and
   check every fetched tensor is bit-identical. [steps] > 1 exercises
   per-step RNG derivation (step_id advances identically in both
   sessions). *)
let check_identical ?(steps = 1) ?cluster ~name build =
  let run policy =
    let b = B.create () in
    let fetches, inits = build b in
    let config = Session.Config.v ~seed:42 ~passes:[] ~scheduler:policy () in
    let session =
      match cluster with
      | None -> Session.create ~config (B.graph b)
      | Some mk -> Cluster.session ~config (mk ()) (B.graph b)
    in
    if inits <> [] then Session.run_unit session inits;
    let out = ref [] in
    for _ = 1 to steps do
      out := Session.run session fetches
    done;
    !out
  in
  let inline = run Scheduler.Inline and pool = run Scheduler.Pool in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "%s fetch %d" name i)
        (Tensor.to_float_array a) (Tensor.to_float_array b))
    (List.combine inline pool)

let test_identical_simple () =
  (* Control-flow-free graph mixing random ops, matmuls and a
     reduction: a wide graph the pool actually fans out. *)
  check_identical ~name:"simple" ~steps:3 (fun b ->
      let branches =
        List.init 8 (fun _ ->
            let x = B.random_normal b [| 6; 6 |] in
            let y = B.random_uniform b ~lo:(-1.0) ~hi:1.0 [| 6; 6 |] in
            B.reduce_sum b (B.matmul b x y))
      in
      ([ B.add_n b branches ], []))

let test_identical_general () =
  (* A while loop forces the general executor (frames, iterations). *)
  check_identical ~name:"while" ~steps:2 (fun b ->
      let init = [ B.const_f b 0.0; B.const_f b 0.0 ] in
      let limit = B.const_f b 10.0 and one = B.const_f b 1.0 in
      let outs =
        B.while_loop b ~invariants:[ limit; one ]
          ~cond:(fun b vars ->
            match vars with
            | [ i; _acc; lim; _one ] -> B.less b i lim
            | _ -> assert false)
          ~body:(fun b vars ->
            match vars with
            | [ i; acc; _lim; one ] -> [ B.add b i one; B.add b acc i ]
            | _ -> assert false)
          init
      in
      (outs, []))

let test_identical_cluster () =
  (* Cross-device Send/Recv: blocking Recv kernels must keep the
     coordinator's progress guarantee under both policies. *)
  let mk () =
    Cluster.create ~jobs:[ ("ps", 1, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ]
  in
  check_identical ~name:"cluster" ~steps:2 ~cluster:mk (fun b ->
      let w =
        B.variable b ~name:"w" ~device:"/job:ps/task:0" ~dtype:Dtype.F32
          ~shape:[| 4 |] ()
      in
      let init = B.assign b w (B.fill b [| 4 |] 2.0) in
      let r = B.read b w in
      let y =
        B.with_device b "/job:worker/task:0" (fun () ->
            B.mul b (B.random_normal b [| 4 |]) r)
      in
      ([ B.reduce_sum b y ], [ init ]))

(* Concurrent Session.run steps racing on one variable: an Assign of
   [k; k] must never be observed torn (components unequal), under the
   pool scheduler where the assign kernel runs on a worker domain. *)
let test_concurrent_no_tearing () =
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[| 2 |] () in
  let k = B.placeholder b ~shape:[||] Dtype.F32 in
  let write = B.assign b v (B.pack b [ k; k ]) in
  let read = B.read b v in
  let session =
    Session.create
      ~config:(Session.Config.v ~scheduler:Scheduler.Pool ())
      (B.graph b)
  in
  Session.run_unit ~feeds:[ (k, Tensor.scalar_f 0.0) ] session [ write ];
  let torn = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        for i = 1 to 200 do
          Session.run_unit
            ~feeds:[ (k, Tensor.scalar_f (float_of_int i)) ]
            session [ write ]
        done)
      ()
  in
  let readers =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 200 do
              match Session.run session [ read ] with
              | [ t ] ->
                  if Tensor.flat_get_f t 0 <> Tensor.flat_get_f t 1 then
                    Atomic.set torn true
              | _ -> assert false
            done)
          ())
  in
  Thread.join writer;
  List.iter Thread.join readers;
  Alcotest.(check bool) "no torn reads" false (Atomic.get torn)

(* T threads x S steps of AssignAdd 1.0 must sum exactly: updates are
   serialized by the variable's lock even when kernels run on worker
   domains. *)
let test_concurrent_assign_add () =
  let b = B.create () in
  let v = B.variable b ~name:"total" ~dtype:Dtype.F32 ~shape:[||] () in
  let init = B.assign b v (B.const_f b 0.0) in
  let bump = B.assign_add b v (B.const_f b 1.0) in
  let session =
    Session.create
      ~config:(Session.Config.v ~scheduler:Scheduler.Pool ())
      (B.graph b)
  in
  Session.run_unit session [ init ];
  let threads = 4 and steps = 100 in
  let workers =
    List.init threads (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to steps do
              Session.run_unit session [ bump ]
            done)
          ())
  in
  List.iter Thread.join workers;
  match Session.run session [ B.read b v ] with
  | [ t ] ->
      Alcotest.(check (float 0.))
        "total" (float_of_int (threads * steps)) (Tensor.flat_get_f t 0)
  | _ -> assert false

let test_policy_parsing () =
  List.iter
    (fun (s, expect) ->
      match Scheduler.policy_of_string s with
      | Ok p ->
          Alcotest.(check string) s
            (Scheduler.policy_to_string expect)
            (Scheduler.policy_to_string p)
      | Error e -> Alcotest.fail e)
    [
      ("inline", Scheduler.Inline);
      ("serial", Scheduler.Inline);
      ("pool", Scheduler.Pool);
      ("parallel", Scheduler.Pool);
    ];
  match Scheduler.policy_of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted bogus policy"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "identical: simple path" `Quick test_identical_simple;
    Alcotest.test_case "identical: while loop" `Quick test_identical_general;
    Alcotest.test_case "identical: cluster send/recv" `Quick
      test_identical_cluster;
    Alcotest.test_case "concurrent runs: no torn assign" `Quick
      test_concurrent_no_tearing;
    Alcotest.test_case "concurrent runs: assign_add total" `Quick
      test_concurrent_assign_add;
    Alcotest.test_case "policy parsing" `Quick test_policy_parsing;
  ]
