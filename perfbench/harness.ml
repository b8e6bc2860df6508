(* What every workload shares: the pinned session configuration, the
   repeated set-up, the timed step loop, the closed-loop serving client,
   and the outcome every workload returns to main.ml. *)

let now = Unix.gettimeofday

(* Every knob an OCTF_* variable could otherwise set is fixed here, so
   the environment cannot change what is measured. One intra-op thread:
   on a 2-vCPU host with CPU steal, two threads made train_convnet range
   over 25% between runs, one thread under 7%. *)
let scheduler = Octf.Scheduler.Inline
let intra_op_threads = 1
let buffer_pool_mb = 256

let config ~seed () =
  Octf.Session.Config.v ~seed ~scheduler
    ~intra_op_threads ~memory_planning:true ~fusion:true ~quantize:false
    ~max_in_flight:1 ~barrier:true ()

let pin_process () =
  Octf_tensor.Parallel.set_threads intra_op_threads;
  Octf_tensor.Buffer_pool.set_limit_mb buffer_pool_mb;
  Octf.Mem_plan.set_enabled true;
  Octf.Fault_injector.reset ()

let config_record =
  Printf.sprintf
    {|{"scheduler":"%s","intra_op_threads":%d,"memory_planning":true,"fusion":true,"quantize_default":false,"max_in_flight":1,"barrier":true,"buffer_pool_mb":%d}|}
    (Octf.Scheduler.policy_to_string scheduler)
    intra_op_threads buffer_pool_mb

type outcome = {
  metrics : (string * float) list;  (** units come from main.ml's table *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named output checks *)
  notes : (string * string) list;  (** run-record fields, JSON values *)
}

(* End-to-end times are read on the process CPU clock. On this
   benchmark's single bound core every thread of a run computes or hands
   off, so CPU time is the wall time of a dedicated core; on a shared VM
   it leaves out the time the hypervisor gives the core to other tenants
   (CPU steal). On a 2-vCPU VM, runs with 350-490 steal ticks stretched
   serve_rnn's wall-clock p99 from 8.6 ms to 21-32 ms, while its
   CPU-clock p99 stayed within 8.3-10.7 ms. The CPU clock still follows
   the speed the host lends the core, which changes every few tens of
   milliseconds; Stats.loaded says how the times are read despite it.
   Wall-clock figures go to the run record.

   Time the program leaves its core idle - a batcher polling for a batch
   to fill while every client waits on it, a step waiting on a timer -
   does not show on the CPU clock, so [idle_check] gates it instead. *)
let cpu = Sys.time

(* The largest share of the timed phase the bound core may sit idle.
   On a 2-vCPU VM the serving workloads idled 1-4% of it (the batcher
   waiting out [max_queue_delay] on a batch the closed loop left short)
   and training 0%; every full batch waiting out the 2 ms delay would
   idle serve_rnn's core about 20%. *)
let max_idle_share = 0.10

(* The check that turns idle time into a failed run; none when the
   process is not bound to one core, whose idle share it reads. *)
let idle_check (p : Host.pressure) =
  match p.core with
  | None -> []
  | Some _ ->
      [ (Printf.sprintf "core_idle_share<=%.2f" max_idle_share, p.core_idle_share <= max_idle_share) ]

(* {1 Host speed}

   Reading times at the loaded percentile (Stats.loaded) keeps them in
   the host's loaded mode within a run, but the host also changes over
   minutes: in quiet periods bursts fill most of a run and even the p90
   falls into them, and the loaded speed itself drifts. Ten-run sets an
   hour apart put train_convnet's p90 at 58.6 and 50.4 ms and
   train_lm_ps's at 43.4 and 36.2 ms. Every timed phase therefore runs a
   fixed reference loop, outside any operation, each [probe_every] CPU
   seconds, and scales each figure by [(reference_s / p) ** alpha],
   where [p] reads the loop's times the way the figure reads the
   operations' (see [host_scale]). The loop is this benchmark's code,
   not the program's, so no change to the program moves it. Between the
   host's two speeds the workloads' times moved 0.69-0.86 times as much
   as the loop's, in log terms (the loop runs from the L1 cache; the
   workloads also wait on memory), hence [alpha]. Over four seeds in a
   noisy hour, scaling cut the run-to-run spread (interquartile range
   over median) of train_convnet's items_per_s from 0.41 to 0.03 and of
   its p90 from 0.21 to 0.05; serve_cnn_int8's, from 0.24 to 0.02 and
   from 0.09 to 0.03. Unscaled figures go to the run record. *)
let reference_s = 1e-3
let alpha = 0.78
let probe_every = 0.05

(* Products of two 40x40 matrices, four times, in floats and in bytes
   at once: the multiply-add loops of the float and the int8 kernels, on
   operands that stay in the L1 cache. *)
let probe_side = 40
let probe_f = Float.Array.init (probe_side * probe_side) (fun i -> float_of_int (i mod 7))
let probe_b = Bytes.init (probe_side * probe_side) (fun i -> Char.chr (i mod 251))
let probe_out = Float.Array.make (probe_side * probe_side) 0.0

let reference_loop () =
  let n = probe_side in
  for _ = 1 to 4 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let s = ref 0.0 and t = ref 0 in
        for k = 0 to n - 1 do
          s :=
            !s
            +. (Float.Array.unsafe_get probe_f ((i * n) + k)
               *. Float.Array.unsafe_get probe_f ((k * n) + j));
          t :=
            !t
            + (Char.code (Bytes.unsafe_get probe_b ((i * n) + k))
              * Char.code (Bytes.unsafe_get probe_b ((k * n) + j)))
        done;
        Float.Array.unsafe_set probe_out ((i * n) + j) (!s +. float_of_int !t)
      done
    done
  done

(* CPU seconds of one reference loop. *)
let probe () =
  let c = cpu () in
  reference_loop ();
  cpu () -. c

(* The factor that brings a time read at the same percentile as the
   reference loop time [p] to the reference speed. *)
let scale_of p = (reference_s /. p) ** alpha

(* Fresh set-ups per run. The first pays for cold code and heap growth
   and is not counted; [setup_s] reads the other ten at the loaded
   percentile (see Stats.loaded): a serve_rnn set-up takes about 0.1 s,
   one or two of the host's speed phases, and the median of its set-up
   times jumped between the two speeds from run to run. The reference
   loop runs before every set-up and after the last, and scales [setup_s]
   as the timed phase's loops scale its latencies. *)
let setups = 11

(* Run [setup] [setups] times. Returns the last set-up, which the timed
   phase uses, every set-up's duration with the plain readings [summary]
   takes from it, and [setup_s]. Each earlier set-up is passed to [release],
   dropped and freed by a full major collection before the next one
   starts, so every set-up starts from the same small heap and the timed
   phase does not run with eleven models' worth of it: kept live, the
   earlier set-ups had raised train_lm_ps's peak RSS from about 65 MB to
   about 185 MB. Collecting them outside the timing keeps one set-up's
   time from paying for another's garbage. *)
let repeat_setup ?(release = ignore) ~summary setup =
  let probes = ref [] in
  let rec go i acc =
    probes := probe () :: !probes;
    let c0 = cpu () in
    let r = setup () in
    let dt = cpu () -. c0 in
    let acc = (dt, summary r) :: acc in
    if i = setups then (r, List.rev acc)
    else begin
      release r;
      Gc.full_major ();
      go (i + 1) acc
    end
  in
  let live, all = go 1 [] in
  probes := probe () :: !probes;
  Gc.full_major ();
  let loaded xs = Stats.percentile (Array.of_list xs) Stats.loaded in
  let setup_s = loaded (List.tl (List.map fst all)) *. scale_of (loaded !probes) in
  (live, all, setup_s)

(* The operations of a timed phase, in completion order. *)
type samples = {
  latencies : float array;  (** CPU seconds per operation *)
  busy : float;  (** CPU seconds the phase took, reference loops left out *)
  probes : float array;  (** CPU seconds of each reference loop *)
  wall_latencies : float array;
  wall : float;
  peak_rss_mb : float;  (** read when the [rss_after]-th operation completed *)
}

(* [start ()] stamps an operation's start, [record started] its end;
   [probe ()] runs the reference loop when [probe_due ()], with no
   operation in flight.

   The serving workloads' resident set grows with every request served
   (Buffer_pool keeps up to 256 MB of freed buffers), about 11 MB per
   second on serve_cnn_int8, so a peak read at the end of the phase
   would follow the host's speed. The peak is read instead when the
   [rss_after]-th operation completes: a fixed amount of work, which
   each workload sets below the count a slow run reaches (a run that
   completes fewer reads it at the end). *)
type recorder = {
  t0 : float;
  start : unit -> float * float;
  record : float * float -> unit;
  probe_due : unit -> bool;
  probe : unit -> unit;
  finish : unit -> samples;
}

let recorder ?(rss_after = max_int) () =
  let lat = ref [] and wall_lat = ref [] in
  let probes = ref [] and probe_cpu = ref 0.0 and last_probe = ref 0.0 in
  let probe () =
    let p = probe () in
    last_probe := cpu ();
    probes := p :: !probes;
    probe_cpu := !probe_cpu +. p
  in
  probe ();
  let t0 = now () and c0 = cpu () in
  let ops = ref 0 and rss = ref None in
  let start () = (now (), cpu ()) in
  let record (t, c) =
    let c' = cpu () in
    incr ops;
    if !ops = rss_after then rss := Some (Host.peak_rss_mb ());
    wall_lat := (now () -. t) :: !wall_lat;
    lat := (c' -. c) :: !lat
  in
  let finish () =
    {
      latencies = Array.of_list (List.rev !lat);
      busy = cpu () -. c0 -. !probe_cpu;
      probes = Array.of_list !probes;
      wall_latencies = Array.of_list (List.rev !wall_lat);
      wall = now () -. t0;
      peak_rss_mb = (match !rss with Some m -> m | None -> Host.peak_rss_mb ());
    }
  in
  let probe_due () = cpu () -. !last_probe >= probe_every in
  { t0; start; record; probe_due; probe; finish }

(* Call [step ()] until [seconds] of wall time have passed. *)
let timed_loop ?rss_after ~seconds step =
  let r = recorder ?rss_after () in
  while now () -. r.t0 < seconds do
    if r.probe_due () then r.probe ();
    let started = r.start () in
    step ();
    r.record started
  done;
  r.finish ()

(* The factors that bring a time of this phase to the reference speed:
   [loaded] for a figure read at the loaded percentile, [mean] for one
   averaged over the phase. Each reads the reference loop's times the
   same way as the figure it scales; the loops are spread evenly over
   the phase's CPU time, as its throughput is. *)
let host_scale s =
  (scale_of (Stats.percentile s.probes Stats.loaded), scale_of (Stats.geomean s.probes))

(* The five end-to-end metrics, times at the reference speed, and
   their unscaled CPU and wall-clock twins for the run record. *)
let end_to_end ~setup_s ~items_per_op s =
  let p, tail = Stats.tail s.latencies in
  let n = float_of_int (Array.length s.latencies) in
  let loaded, mean = host_scale s in
  let rate = n *. items_per_op /. s.busy in
  let p90 = Stats.percentile s.latencies Stats.loaded in
  ( [
      ("setup_s", setup_s);
      ("items_per_s", rate /. mean);
      ("latency_p90_ms", p90 *. loaded *. 1e3);
      ("latency_tail_ms", tail *. loaded *. 1e3);
      ("peak_rss_mb", s.peak_rss_mb);
    ],
    [
      ("clock", {|"process CPU at reference speed"|});
      ("tail_percentile", Printf.sprintf "%g" p);
      ("latency_samples", Printf.sprintf "%.0f" n);
      ( "host_speed",
        Printf.sprintf
          {|{"probes":%d,"probe_p50_ms":%.4f,"probe_p90_ms":%.4f,"loaded_scale":%.4f,"mean_scale":%.4f}|}
          (Array.length s.probes)
          (Stats.median s.probes *. 1e3)
          (Stats.percentile s.probes Stats.loaded *. 1e3)
          loaded mean );
      ( "cpu_clock",
        Printf.sprintf
          {|{"items_per_s":%.4f,"latency_p90_ms":%.4f,"latency_tail_ms":%.4f,"latency_p50_ms":%.4f}|}
          rate (p90 *. 1e3) (tail *. 1e3)
          (Stats.median s.latencies *. 1e3) );
      ( "wall_clock",
        Printf.sprintf
          {|{"items_per_s":%.4f,"latency_p90_ms":%.4f,"latency_tail_ms":%.4f,"cpu_share":%.4f}|}
          (n *. items_per_op /. s.wall)
          (Stats.percentile s.wall_latencies Stats.loaded *. 1e3)
          (Stats.percentile s.wall_latencies p *. 1e3)
          (s.busy /. s.wall) );
    ] )

(* {1 Closed-loop serving client}

   One client thread keeps [window] requests outstanding: it awaits the
   oldest, records its latency and submits the next. When the reference
   loop is due it awaits every request, runs the loop and submits a new
   window. Requests cycle over [examples]; [check i answer] tells
   whether the answer to example [i] is right. *)
type served = {
  samples : samples;
  attempted : int;
  refused : int;  (** rejected at submit or failed in await *)
  wrong : int;  (** answered, but [check] failed *)
}

let closed_loop ?(max_requests = max_int) ?(check = fun _ _ -> true) ?rss_after
    server ~window ~seconds ~examples =
  let module S = Octf_serving.Serving in
  let n = Array.length examples in
  let inflight = Queue.create () in
  let r = recorder ?rss_after () in
  let attempted = ref 0 and refused = ref 0 and wrong = ref 0 in
  let submit () =
    let i = !attempted mod n in
    incr attempted;
    let started = r.start () in
    match S.submit server examples.(i) with
    | Ok req -> Queue.add (i, started, req) inflight
    | Error _ -> incr refused
  in
  let complete () =
    let i, started, req = Queue.take inflight in
    match S.await req with
    | Ok outs ->
        r.record started;
        if not (check i outs) then incr wrong
    | Error _ -> incr refused
  in
  let drain () =
    while not (Queue.is_empty inflight) do
      complete ()
    done
  in
  let fill () =
    for _ = 1 to window - Queue.length inflight do
      submit ()
    done
  in
  fill ();
  while now () -. r.t0 < seconds && !attempted < max_requests do
    if r.probe_due () then begin
      drain ();
      r.probe ();
      fill ()
    end
    else begin
      if not (Queue.is_empty inflight) then complete ();
      submit ()
    end
  done;
  drain ();
  let samples = r.finish () in
  { samples; attempted = !attempted; refused = !refused; wrong = !wrong }

