open Octf_tensor
open Octf
module B = Builder

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* One traced step: the fetched tensors and the step's tracer. *)
let run_traced s fetches =
  let options = Session.Run_options.v ~trace:true () in
  let results, md = Session.run_with_metadata ~options s fetches in
  (results, Option.get md.Session.Run_metadata.tracer)

let test_traces_kernels () =
  let b = B.create () in
  let x = B.const_f b 2.0 in
  let y = B.mul b (B.neg b x) (B.const_f b 3.0) in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let results, tracer = run_traced s [ y ] in
  Alcotest.(check (float 0.)) "result" (-6.0)
    (Tensor.flat_get_f (List.hd results) 0);
  let evs = Tracer.events tracer in
  Alcotest.(check int) "four kernels" 4 (List.length evs);
  let ops = List.map (fun e -> e.Tracer.op_type) evs in
  Alcotest.(check bool) "has Neg" true (List.mem "Neg" ops);
  Alcotest.(check bool) "has Mul" true (List.mem "Mul" ops);
  List.iter
    (fun e -> Alcotest.(check bool) "non-negative" true (e.Tracer.duration >= 0.0))
    evs

let test_summary_and_totals () =
  let b = B.create () in
  let x = B.const_f b 1.0 in
  let y = B.add_n b [ x; x; x ] in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let _, tracer = run_traced s [ y ] in
  let by_op = Tracer.by_op_type tracer in
  Alcotest.(check bool) "grouped" true
    (List.exists (fun (op, c, _) -> op = "Const" && c = 1) by_op);
  Alcotest.(check bool) "total >= max component" true
    (Tracer.total_time tracer
    >= List.fold_left (fun acc (_, _, t) -> Float.max acc t) 0.0 by_op)

let test_chrome_trace_shape () =
  let b = B.create () in
  let y = B.neg b (B.const_f b 1.0) in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let _, tracer = run_traced s [ y ] in
  let json = Tracer.to_chrome_trace tracer in
  Alcotest.(check bool) "traceEvents" true (contains json "\"traceEvents\"");
  Alcotest.(check bool) "phase X" true (contains json "\"ph\":\"X\"");
  Alcotest.(check bool) "op name present" true (contains json "\"Neg\"")

let test_distributed_trace_has_devices () =
  let c =
    Cluster.create
      ~jobs:[ ("ps", 1, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ]
  in
  let b = B.create () in
  let v =
    B.variable b ~name:"w" ~device:"/job:ps/task:0" ~dtype:Dtype.F32
      ~shape:[||] ()
  in
  let init = B.assign b v (B.const_f b 1.0) in
  let r = B.read b v in
  let y =
    B.with_device b "/job:worker/task:0" (fun () ->
        B.mul b r (B.const_f b 2.0))
  in
  let s = Cluster.session c (B.graph b) in
  Session.run_unit s [ init ];
  let _, tracer = run_traced s [ y ] in
  let devices =
    List.sort_uniq compare
      (List.map (fun e -> e.Tracer.device) (Tracer.events tracer))
  in
  Alcotest.(check bool) "events from both tasks" true
    (List.length devices >= 2);
  let ops = List.map (fun e -> e.Tracer.op_type) (Tracer.events tracer) in
  Alcotest.(check bool) "traces the communication" true
    (List.mem "Send" ops && List.mem "Recv" ops)

let test_chrome_trace_valid_json () =
  (* Node names with quotes, backslashes and control characters must be
     escaped so the trace is parseable JSON. *)
  let b = B.create () in
  let x = B.const_f b ~name:{|quo"te \back\slash|} 1.0 in
  let y = B.neg b ~name:"tab\there" x in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let _, tracer = run_traced s [ y ] in
  let json = Json_check.parse (Tracer.to_chrome_trace tracer) in
  let events =
    Option.get
      (Json_check.to_list (Option.get (Json_check.member "traceEvents" json)))
  in
  Alcotest.(check bool) "has events" true (List.length events >= 2);
  let names =
    List.filter_map
      (fun e -> Option.bind (Json_check.member "name" e) Json_check.to_string)
      events
  in
  Alcotest.(check bool) "escaped quote/backslash name round-trips" true
    (List.mem {|quo"te \back\slash|} names);
  Alcotest.(check bool) "escaped tab name round-trips" true
    (List.mem "tab\there" names);
  List.iter
    (fun e ->
      Alcotest.(check bool) "every event records bytes" true
        (Option.bind (Json_check.member "args" e) (Json_check.member "bytes")
        <> None))
    events

let test_summary_reports_lanes () =
  let b = B.create () in
  let x = B.const_f b 2.0 in
  let y = B.add_n b (List.init 6 (fun _ -> B.mul b x x)) in
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~scheduler:Scheduler.Pool ())
      (B.graph b)
  in
  let _, tracer = run_traced s [ y ] in
  Alcotest.(check bool) "lane utilization non-empty" true
    (Tracer.lane_utilization tracer <> []);
  List.iter
    (fun (_, _, busy, util) ->
      Alcotest.(check bool) "busy non-negative" true (busy >= 0.0);
      Alcotest.(check bool) "utilization a fraction" true
        (util >= 0.0 && util <= 1.0 +. 1e-9))
    (Tracer.lane_utilization tracer);
  let rendered = Format.asprintf "%a" Tracer.pp_summary tracer in
  Alcotest.(check bool) "summary has lanes block" true
    (contains rendered "lanes:");
  Alcotest.(check bool) "summary shows utilization" true
    (contains rendered "% busy" || contains rendered "busy")

let suite =
  [
    Alcotest.test_case "traces kernels" `Quick test_traces_kernels;
    Alcotest.test_case "summary and totals" `Quick test_summary_and_totals;
    Alcotest.test_case "chrome trace" `Quick test_chrome_trace_shape;
    Alcotest.test_case "distributed trace" `Quick
      test_distributed_trace_has_devices;
    Alcotest.test_case "chrome trace valid json" `Quick
      test_chrome_trace_valid_json;
    Alcotest.test_case "summary reports lanes" `Quick
      test_summary_reports_lanes;
  ]
