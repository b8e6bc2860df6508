open Octf_tensor
open Octf
module B = Builder

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Registry basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.Counter.v ~registry:r ~help:"test counter" "requests_total" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Metrics.Counter.add_f c 0.5;
  Alcotest.(check (float 1e-9)) "accumulates" 5.5 (Metrics.Counter.value c);
  Metrics.Counter.add c (-3);
  Metrics.Counter.add_f c (-1.0);
  Alcotest.(check (float 1e-9)) "monotone: negative adds ignored" 5.5
    (Metrics.Counter.value c);
  (* Same name and labels resolve to the same series. *)
  let c' = Metrics.Counter.v ~registry:r "requests_total" in
  Metrics.Counter.incr c';
  Alcotest.(check (float 1e-9)) "same series" 6.5 (Metrics.Counter.value c)

let test_gauge_basics () =
  let r = Metrics.create () in
  let g = Metrics.Gauge.v ~registry:r "depth" in
  Metrics.Gauge.set g 3.0;
  Metrics.Gauge.incr g;
  Metrics.Gauge.decr g;
  Metrics.Gauge.add g (-2.0);
  Alcotest.(check (float 1e-9)) "set/add" 1.0 (Metrics.Gauge.value g);
  Metrics.Gauge.max_to g 10.0;
  Metrics.Gauge.max_to g 4.0;
  Alcotest.(check (float 1e-9)) "max_to keeps high-watermark" 10.0
    (Metrics.Gauge.value g)

let test_histogram_buckets () =
  let r = Metrics.create () in
  let h =
    Metrics.Histogram.v ~registry:r ~buckets:[| 1.0; 2.0; 5.0 |] "lat_seconds"
  in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.5; 3.0; 10.0 ];
  Alcotest.(check int) "count" 4 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 15.0 (Metrics.Histogram.sum h);
  match Metrics.snapshot r with
  | [ s ] ->
      Alcotest.(check (list (pair (float 1e-9) int)))
        "cumulative buckets"
        [ (1.0, 1); (2.0, 2); (5.0, 3) ]
        s.Metrics.buckets
  | l -> Alcotest.failf "expected one sample, got %d" (List.length l)

let test_histogram_time_on_exception () =
  let r = Metrics.create () in
  let h = Metrics.Histogram.v ~registry:r "work_seconds" in
  (try Metrics.Histogram.time h (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "observed despite exception" 1
    (Metrics.Histogram.count h)

let test_labels_distinct_series () =
  let r = Metrics.create () in
  let a = Metrics.Counter.v ~registry:r ~labels:[ ("op", "Add") ] "ops_total" in
  let b = Metrics.Counter.v ~registry:r ~labels:[ ("op", "Mul") ] "ops_total" in
  Metrics.Counter.add a 2;
  Metrics.Counter.incr b;
  Alcotest.(check (option (float 1e-9)))
    "labeled lookup Add" (Some 2.0)
    (Metrics.find_value ~labels:[ ("op", "Add") ] r "ops_total");
  Alcotest.(check (option (float 1e-9)))
    "labeled lookup Mul" (Some 1.0)
    (Metrics.find_value ~labels:[ ("op", "Mul") ] r "ops_total");
  (* Label order is irrelevant: sorted into one canonical key. *)
  let c1 =
    Metrics.Counter.v ~registry:r
      ~labels:[ ("x", "1"); ("y", "2") ]
      "pairs_total"
  in
  let c2 =
    Metrics.Counter.v ~registry:r
      ~labels:[ ("y", "2"); ("x", "1") ]
      "pairs_total"
  in
  Metrics.Counter.incr c1;
  Metrics.Counter.incr c2;
  Alcotest.(check (option (float 1e-9)))
    "order-insensitive" (Some 2.0)
    (Metrics.find_value ~labels:[ ("x", "1"); ("y", "2") ] r "pairs_total")

let test_kind_conflict_rejected () =
  let r = Metrics.create () in
  ignore (Metrics.Counter.v ~registry:r "thing");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument
       "Metrics: thing already registered as a counter (requested gauge)")
    (fun () -> ignore (Metrics.Gauge.v ~registry:r "thing"))

let test_reset () =
  let r = Metrics.create () in
  let c = Metrics.Counter.v ~registry:r "n_total" in
  Metrics.Counter.add c 7;
  Metrics.reset r;
  Alcotest.(check (float 1e-9)) "zeroed" 0.0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Alcotest.(check (float 1e-9)) "still usable" 1.0 (Metrics.Counter.value c)

(* ------------------------------------------------------------------ *)
(* Concurrency: many domains hammering the same and distinct series    *)
(* ------------------------------------------------------------------ *)

let test_concurrent_domains () =
  let r = Metrics.create () in
  let shared = Metrics.Counter.v ~registry:r "shared_total" in
  let h = Metrics.Histogram.v ~registry:r ~buckets:[| 0.5 |] "obs_seconds" in
  let domains = 4 and per_domain = 10_000 in
  let worker d () =
    (* Each domain also creates its own labeled series through [v],
       racing on family registration. *)
    let own =
      Metrics.Counter.v ~registry:r
        ~labels:[ ("domain", string_of_int d) ]
        "per_domain_total"
    in
    for _ = 1 to per_domain do
      Metrics.Counter.incr shared;
      Metrics.Counter.incr own;
      Metrics.Histogram.observe h 0.1
    done
  in
  let spawned = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join spawned;
  Alcotest.(check (float 1e-9))
    "no lost shared increments"
    (float_of_int (domains * per_domain))
    (Metrics.Counter.value shared);
  Alcotest.(check int) "no lost observations" (domains * per_domain)
    (Metrics.Histogram.count h);
  for d = 0 to domains - 1 do
    Alcotest.(check (option (float 1e-9)))
      "per-domain series intact"
      (Some (float_of_int per_domain))
      (Metrics.find_value
         ~labels:[ ("domain", string_of_int d) ]
         r "per_domain_total")
  done

let test_pool_scheduler_instrumentation () =
  (* Built-in executor instrumentation must stay consistent when steps
     run on the shared domain pool. *)
  let kernels_before =
    Option.value ~default:0.0
      (Metrics.find_value Metrics.default "octf_executor_kernels_total")
  in
  let steps_before =
    Option.value ~default:0.0
      (Metrics.find_value Metrics.default "octf_session_steps_total")
  in
  let b = B.create () in
  let x = B.const_f b 2.0 in
  let y = B.add_n b (List.init 8 (fun _ -> B.mul b x x)) in
  let s =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~scheduler:Scheduler.Pool ())
      (B.graph b)
  in
  let iters = 20 in
  for _ = 1 to iters do
    ignore (Session.run s [ y ])
  done;
  let kernels_after =
    Option.get (Metrics.find_value Metrics.default "octf_executor_kernels_total")
  in
  let steps_after =
    Option.get (Metrics.find_value Metrics.default "octf_session_steps_total")
  in
  Alcotest.(check (float 1e-9))
    "one step counted per run" (float_of_int iters)
    (steps_after -. steps_before);
  (* 10 kernels per step: 1 const + 8 muls + 1 add_n. *)
  Alcotest.(check (float 1e-9))
    "kernel dispatches counted across domains"
    (float_of_int (iters * 10))
    (kernels_after -. kernels_before)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_prometheus_format () =
  let r = Metrics.create () in
  let c =
    Metrics.Counter.v ~registry:r ~help:"Total requests"
      ~labels:[ ("path", "a\\b\"c\nd") ]
      "http_requests_total"
  in
  Metrics.Counter.add c 3;
  let g = Metrics.Gauge.v ~registry:r ~help:"In flight" "in_flight" in
  Metrics.Gauge.set g 2.0;
  let h = Metrics.Histogram.v ~registry:r ~buckets:[| 0.1; 1.0 |] "t_seconds" in
  Metrics.Histogram.observe h 0.05;
  Metrics.Histogram.observe h 5.0;
  let text = Metrics.to_prometheus r in
  Alcotest.(check bool) "HELP line" true
    (contains text "# HELP http_requests_total Total requests");
  Alcotest.(check bool) "TYPE counter" true
    (contains text "# TYPE http_requests_total counter");
  Alcotest.(check bool) "label value escaped" true
    (contains text "http_requests_total{path=\"a\\\\b\\\"c\\nd\"} 3");
  Alcotest.(check bool) "gauge sample" true (contains text "in_flight 2");
  Alcotest.(check bool) "TYPE histogram" true
    (contains text "# TYPE t_seconds histogram");
  Alcotest.(check bool) "cumulative first bucket" true
    (contains text "t_seconds_bucket{le=\"0.1\"} 1");
  Alcotest.(check bool) "overflow only in +Inf" true
    (contains text "t_seconds_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "sum" true (contains text "t_seconds_sum 5.05");
  Alcotest.(check bool) "count" true (contains text "t_seconds_count 2")

let test_json_round_trip () =
  let r = Metrics.create () in
  let c =
    Metrics.Counter.v ~registry:r
      ~labels:[ ("name", "quo\"te\\slash") ]
      "events_total"
  in
  Metrics.Counter.add c 11;
  let h = Metrics.Histogram.v ~registry:r ~buckets:[| 1.0 |] "d_seconds" in
  Metrics.Histogram.observe h 0.25;
  let json = Json_check.parse (Metrics.to_json r) in
  let metrics =
    Option.get (Json_check.to_list (Option.get (Json_check.member "metrics" json)))
  in
  Alcotest.(check int) "two series" 2 (List.length metrics);
  let by_name n =
    List.find
      (fun m -> Json_check.member "name" m = Some (Json_check.Str n))
      metrics
  in
  let counter = by_name "events_total" in
  Alcotest.(check (option (float 1e-9)))
    "counter value" (Some 11.0)
    (Option.bind (Json_check.member "value" counter) Json_check.to_float);
  let labels = Option.get (Json_check.member "labels" counter) in
  Alcotest.(check (option string))
    "label escapes round-trip" (Some "quo\"te\\slash")
    (Option.bind (Json_check.member "name" labels) Json_check.to_string);
  let histo = by_name "d_seconds" in
  Alcotest.(check (option (float 1e-9)))
    "histogram sum" (Some 0.25)
    (Option.bind (Json_check.member "sum" histo) Json_check.to_float)

(* ------------------------------------------------------------------ *)
(* Run_options / Run_metadata                                          *)
(* ------------------------------------------------------------------ *)

let test_run_metadata_step_stats () =
  (* Distributed graph, so step stats include Send/Recv and non-zero
     tensor byte counts. *)
  let c =
    Cluster.create
      ~jobs:[ ("ps", 1, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ]
  in
  let b = B.create () in
  let v =
    B.variable b ~name:"w" ~device:"/job:ps/task:0" ~dtype:Dtype.F32
      ~shape:[||] ()
  in
  let init = B.assign b v (B.const_f b 1.5) in
  let r = B.read b v in
  let y =
    B.with_device b "/job:worker/task:0" (fun () ->
        B.mul b r (B.const_f b 2.0))
  in
  let s = Cluster.session c (B.graph b) in
  Session.run_unit s [ init ];
  let options = Session.Run_options.v ~collect_stats:true () in
  let results, md = Session.run_with_metadata ~options s [ y ] in
  Alcotest.(check (float 0.)) "result" 3.0
    (Tensor.flat_get_f (List.hd results) 0);
  let stats = Option.get md.Session.Run_metadata.step_stats in
  let tracer = Option.get md.Session.Run_metadata.tracer in
  Alcotest.(check int) "step ids agree" md.Session.Run_metadata.step_id
    stats.Step_stats.step_id;
  Alcotest.(check (float 1e-9))
    "step-stats kernel time equals tracer total"
    (Tracer.total_time tracer)
    (Step_stats.total_time stats);
  Alcotest.(check bool) "recv moved bytes" true
    (Step_stats.total_bytes stats > 0);
  Alcotest.(check bool) "wall time covers kernels" true
    (md.Session.Run_metadata.wall_time >= 0.0);
  let ops = List.map (fun (op, _, _) -> op) (Step_stats.by_op_type stats) in
  Alcotest.(check bool) "send/recv in stats" true
    (List.mem "Send" ops && List.mem "Recv" ops)

let test_run_options_targets_and_wrappers () =
  let b = B.create () in
  let v = B.variable b ~name:"n" ~dtype:Dtype.F32 ~shape:[||] () in
  let init = B.assign b v (B.const_f b 0.0) in
  let bump = B.assign_add b v (B.const_f b 1.0) in
  let read = B.read b v in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  (* Targets execute for effect without being fetched. *)
  let options = Session.Run_options.v ~targets:[ bump ] () in
  let results, md = Session.run_with_metadata ~options s [ read ] in
  Alcotest.(check (float 0.)) "target ran" 1.0
    (Tensor.flat_get_f (List.hd results) 0);
  Alcotest.(check bool) "no stats unless asked" true
    (md.Session.Run_metadata.step_stats = None);
  (* Legacy wrappers still drive the same machinery. *)
  Session.run_unit s [ bump ];
  (match Session.run s [ read ] with
  | [ t ] -> Alcotest.(check (float 0.)) "legacy run" 2.0 (Tensor.flat_get_f t 0)
  | _ -> assert false);
  let _, md =
    Session.run_with_metadata
      ~options:(Session.Run_options.v ~trace:true ())
      s [ read ]
  in
  Alcotest.(check bool) "trace option traces" true
    (Tracer.events (Option.get md.Session.Run_metadata.tracer) <> [])

let test_queue_metric_deltas () =
  let depth name =
    Option.value ~default:0.0
      (Metrics.find_value
         ~labels:[ ("queue", name) ]
         Metrics.default "octf_queue_depth")
  in
  let enq name =
    Option.value ~default:0.0
      (Metrics.find_value
         ~labels:[ ("queue", name) ]
         Metrics.default "octf_queue_enqueued_total")
  in
  let qname = "metrics_test_q" in
  let enq0 = enq qname in
  let b = B.create () in
  let q = B.fifo_queue b ~name:qname ~capacity:4 ~num_components:1 () in
  let enqueue = B.enqueue b q [ B.const_f b 42.0 ] in
  let dequeue = B.dequeue b q ~num_components:1 in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ enqueue ];
  Session.run_unit s [ enqueue ];
  Alcotest.(check (float 1e-9)) "two enqueues counted" 2.0 (enq qname -. enq0);
  Alcotest.(check (float 1e-9)) "depth gauge tracks" 2.0 (depth qname);
  ignore (Session.run s dequeue);
  Alcotest.(check (float 1e-9)) "depth after dequeue" 1.0 (depth qname)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram time on exception" `Quick
      test_histogram_time_on_exception;
    Alcotest.test_case "labels distinct series" `Quick
      test_labels_distinct_series;
    Alcotest.test_case "kind conflict rejected" `Quick
      test_kind_conflict_rejected;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "concurrent domains" `Quick test_concurrent_domains;
    Alcotest.test_case "pool scheduler instrumentation" `Quick
      test_pool_scheduler_instrumentation;
    Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "run metadata step stats" `Quick
      test_run_metadata_step_stats;
    Alcotest.test_case "run options targets and wrappers" `Quick
      test_run_options_targets_and_wrappers;
    Alcotest.test_case "queue metric deltas" `Quick test_queue_metric_deltas;
  ]
