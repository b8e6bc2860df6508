(* Order statistics and the derived per-layer metrics. Pure functions,
   unit-tested by test_stats.ml. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Median of an unsorted sample; the mean of the two middle values when
   the count is even. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty sample";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_list l = median (Array.of_list l)

(* 1-based nearest rank of the [p] percentile among [n] samples;
   [p *. n] before the division keeps whole-number cases exact. *)
let rank n p = int_of_float (Float.ceil (p *. float_of_int n /. 100.0))

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the sample at or below it. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let a = sorted xs in
  a.(max 0 (min (n - 1) (rank n p - 1)))

(* Percentiles the tail metric may report, highest first. A fixed ladder
   keeps one workload on the same percentile from run to run, where
   "the 11th-largest sample" would drift with the sample count. It stops
   at p99: a p99.9 resting on a few dozen samples moved with every
   major GC slice. *)
let tail_ladder = [ 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* Samples strictly beyond the nearest-rank [p] percentile of [n]. *)
let beyond n p = n - rank n p

(* Samples the tail percentile must leave beyond it. *)
let min_beyond = 10

(* The highest ladder percentile with at least [min_beyond] samples
   beyond it, or [None] when even the median has too few. *)
let tail_percentile n =
  List.find_opt (fun p -> beyond n p >= min_beyond) tail_ladder

(* [(percentile, value)] of the tail metric; a sample too small for any
   ladder entry reports its maximum as the 100th percentile. *)
let tail xs =
  match tail_percentile (Array.length xs) with
  | Some p -> (p, percentile xs p)
  | None -> (100.0, Array.fold_left Float.max Float.neg_infinity xs)

(* {1 The loaded regime}

   The benchmark's core alternates, every few tens of milliseconds,
   between a loaded speed and bursts up to twice as fast; on a 2-vCPU VM
   a serve_cnn_int8 batch took 25-28 ms in the first and 16-18 ms in the
   second, and the bursts covered 20-50% of a run. The loaded speed
   repeats from run to run; the share of bursts does not, so a median
   jumps between the two modes. Latencies and set-up times are read at
   the [loaded] percentile, which stays in the loaded mode while bursts cover up to
   70% of a run: resampling runs with 0-70% bursts moved every
   workload's p90 latency by at most 6%, and its median by up to 36%. *)
let loaded = 90.0

(* Geometric mean of a positive sample. *)
let geomean xs =
  if Array.length xs = 0 then invalid_arg "Stats.geomean: empty sample";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (Array.length xs))

(* Executor overhead: the part of a step's wall time not spent inside a
   kernel. *)
let overhead_ms ~step_ms ~kernel_ms = step_ms -. kernel_ms

let overhead_us_per_kernel ~step_ms ~kernel_ms ~kernels =
  if kernels <= 0 then 0.0
  else overhead_ms ~step_ms ~kernel_ms *. 1e3 /. float_of_int kernels

(* Serving queue time: request latency not spent in the batched step. *)
let queue_ms ~latency_p50_ms ~batch_step_ms = latency_p50_ms -. batch_step_ms

let ratio num den = if den = 0.0 then 0.0 else num /. den
