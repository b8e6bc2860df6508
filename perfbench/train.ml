(* The phases both training workloads share: repeated set-up, a timed
   run of synchronous steps, the loss checks, and the traced run. *)

type live = {
  step : ?stats:bool -> int -> float * Octf.Session.Run_metadata.t;
      (** run training step [i] on the [i]-th pooled input batch;
          returns the loss and the step's metadata *)
  compile_ms : float;  (** [Session.precompile] time of the step *)
  warm_losses : float list;  (** losses of the warm-up steps, in order *)
}

(* Warm-up steps inside each set-up. The first steps of a fresh session
   run up to twice as slow as later ones; set-up includes them so the
   timed phase starts at steady state. *)
let warmup = 3

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* What a set-up leaves once its session is let go. *)
let summary live = (live.compile_ms, live.warm_losses)

(* The output checks: every set-up, on the same seeded inputs, reaches a
   bit-identical loss after its warm-up; after the timed steps the loss
   is finite and its mean over the last steps is below the first
   warm-up loss. [warm] holds each set-up's warm-up losses; [losses] are
   the run's losses, newest first. *)
let checks warm losses =
  let finals = List.map (fun l -> List.nth l (warmup - 1)) warm in
  let f0 = List.hd finals in
  let start = List.hd (List.hd warm) in
  let last = take 5 losses in
  [
    ( "loss_bit_identical_across_setups",
      List.for_all (fun f -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f0)) finals );
    ("loss_finite", List.for_all Float.is_finite losses);
    ("loss_below_start", last <> [] && mean last < start);
  ]

let run ~name ~seconds ~trace ~items_per_step ~rss_after ~pool ~setup ~micro =
  let live, setups, setup_s = Harness.repeat_setup ~summary setup in
  let compile_ms = Stats.median_list (List.map (fun (_, (c, _)) -> c) setups) in
  let warm = List.map (fun (_, (_, w)) -> w) setups in
  let losses = ref [] and untraced_walls = ref [] in
  let checks pressure = checks warm !losses @ Harness.idle_check pressure in
  (* Steps continue the warm-up's sequence of pooled input batches. *)
  let next = ref warmup in
  let run_step ?stats () =
    let loss, md = live.step ?stats !next in
    incr next;
    losses := loss :: !losses;
    md
  in
  let step () =
    let md = run_step () in
    untraced_walls := md.Octf.Session.Run_metadata.wall_time :: !untraced_walls
  in
  let timed secs =
    let pressure = Host.sample_before () in
    let samples = Harness.timed_loop ~rss_after ~seconds:secs step in
    (samples, Host.sample_after pressure)
  in
  if not trace then begin
    let samples, pressure = timed seconds in
    let checks = checks pressure in
    let steps = Array.length samples.latencies in
    let metrics, notes =
      Harness.end_to_end ~setup_s ~items_per_op:items_per_step samples
    in
    {
      Harness.metrics;
      attempted = steps;
      failed = (if List.for_all snd checks then 0 else 1);
      checks;
      notes = notes @ [ ("pressure", Host.pressure_json pressure) ];
    }
  end
  else begin
    (* Counts come from one pass over the input pool right after
       set-up: the same steps on every run of a seed. *)
    let before = Layers.snapshot () in
    for _ = 1 to pool do
      ignore (run_step ())
    done;
    let counts = Layers.per_step ~steps:pool before (Layers.snapshot ()) in
    let before = Layers.snapshot () in
    let samples, pressure = timed (seconds /. 2.0) in
    let untraced = Array.length samples.latencies in
    let rates =
      Layers.rates ~items:(float_of_int untraced *. items_per_step) before
        (Layers.snapshot ())
    in
    let untraced_step_ms = Stats.median_list !untraced_walls *. 1e3 in
    let readings, traced, trace_file =
      Layers.traced ~name ~seconds:(seconds /. 4.0) (run_step ~stats:true)
    in
    let checks = checks pressure in
    let step_ms = List.assoc "executor.step_ms" readings in
    let metrics =
      readings @ counts @ rates
      @ micro ~seconds:(seconds /. 12.0)
      @ [
          ("session.compile_ms", compile_ms);
          ("executor.untraced_step_ms", untraced_step_ms);
          ("executor.trace_overhead_ms", step_ms -. untraced_step_ms);
        ]
    in
    {
      Harness.metrics;
      attempted = !next - warmup;
      failed = (if List.for_all snd checks then 0 else 1);
      checks;
      notes =
        [
          ("traced_steps", string_of_int traced);
          ("trace_file", trace_file);
          ("pressure", Host.pressure_json pressure);
        ];
    }
  end
