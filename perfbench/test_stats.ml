(* Unit tests of the benchmark's statistics: the median, tail-percentile
   selection, the geometric mean and the derived per-layer metrics. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_median () =
  check "median odd" (Stats.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "median even" (Stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "median single" (Stats.median [| 7.0 |] = 7.0);
  check "median leaves input unsorted"
    (let a = [| 3.0; 1.0; 2.0 |] in
     ignore (Stats.median a);
     a = [| 3.0; 1.0; 2.0 |]);
  check "median empty raises"
    (match Stats.median [||] with _ -> false | exception Invalid_argument _ -> true)

let ramp n = Array.init n (fun i -> float_of_int (n - i))

let test_tail () =
  (* The highest ladder percentile with at least 10 samples beyond it. *)
  check "1000 samples -> p99" (Stats.tail_percentile 1000 = Some 99.0);
  check "999 samples -> p95" (Stats.tail_percentile 999 = Some 95.0);
  check "200 samples -> p95" (Stats.tail_percentile 200 = Some 95.0);
  check "199 samples -> p90" (Stats.tail_percentile 199 = Some 90.0);
  check "100 samples -> p90" (Stats.tail_percentile 100 = Some 90.0);
  check "99 samples -> p75" (Stats.tail_percentile 99 = Some 75.0);
  check "40 samples -> p75" (Stats.tail_percentile 40 = Some 75.0);
  check "20 samples -> p50" (Stats.tail_percentile 20 = Some 50.0);
  check "19 samples -> none" (Stats.tail_percentile 19 = None);
  List.iter
    (fun n ->
      match Stats.tail_percentile n with
      | Some p ->
          check
            (Printf.sprintf "%d samples: >= 10 beyond p%g" n p)
            (Stats.beyond n p >= 10)
      | None -> ())
    [ 20; 37; 100; 150; 999; 1000; 12345 ];
  (* Nearest rank on 1..1000: p99 is the 990th value, 10 lie beyond. *)
  check "p99 of 1..1000" (Stats.tail (ramp 1000) = (99.0, 990.0));
  check "p90 of 1..100" (Stats.tail (ramp 100) = (90.0, 90.0));
  check "small sample reports its max" (Stats.tail (ramp 5) = (100.0, 5.0));
  check "p50 of 1..4" (Stats.percentile (ramp 4) 50.0 = 2.0)

let test_geomean () =
  check "geomean" (close (Stats.geomean [| 1.0; 4.0 |]) 2.0);
  check "geomean single" (close (Stats.geomean [| 3.0 |]) 3.0);
  check "geomean empty raises"
    (match Stats.geomean [||] with _ -> false | exception Invalid_argument _ -> true)

let test_derived () =
  check "overhead = wall - kernels"
    (close (Stats.overhead_ms ~step_ms:10.0 ~kernel_ms:7.5) 2.5);
  check "overhead per kernel in us"
    (close (Stats.overhead_us_per_kernel ~step_ms:10.0 ~kernel_ms:7.5 ~kernels:500) 5.0);
  check "no kernels, no per-kernel overhead"
    (Stats.overhead_us_per_kernel ~step_ms:1.0 ~kernel_ms:0.0 ~kernels:0 = 0.0);
  check "queue = p50 - batch step"
    (close (Stats.queue_ms ~latency_p50_ms:9.0 ~batch_step_ms:7.75) 1.25);
  check "ratio" (close (Stats.ratio 3.0 4.0) 0.75);
  check "ratio of nothing" (Stats.ratio 0.0 0.0 = 0.0)

let () =
  test_median ();
  test_tail ();
  test_geomean ();
  test_derived ();
  if !failures > 0 then exit 1
