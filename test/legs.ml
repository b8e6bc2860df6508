(* Scheduler legs. A suite whose steps block, cancel, pipeline or record
   lanes runs twice: once as written, under the default inline
   scheduler, and once more as "<suite> pool", where every test runs
   with OCTF_SCHEDULER=pool (read by each session built without an
   explicit scheduler) and an intra-op budget of 4 threads. Both
   settings are restored after each test. *)

let under_pool f () =
  let saved_policy = Sys.getenv_opt "OCTF_SCHEDULER" in
  let saved_threads = Octf_tensor.Parallel.threads () in
  Unix.putenv "OCTF_SCHEDULER" "pool";
  Octf_tensor.Parallel.set_threads 4;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "OCTF_SCHEDULER" (Option.value saved_policy ~default:"");
      Octf_tensor.Parallel.set_threads saved_threads)
    f

let pool (name, suite) =
  ( name ^ " pool",
    List.map (fun (test, speed, f) -> (test, speed, under_pool f)) suite )

(* [suites] as given, then the pool leg of each suite named in
   [pooled]. *)
let with_pool_legs ~pooled suites =
  suites
  @ List.filter_map
      (fun ((name, _) as s) ->
        if List.mem name pooled then Some (pool s) else None)
      suites
