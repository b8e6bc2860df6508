module Metrics = Octf.Metrics
module Session = Octf.Session

type t = {
  registry : Metrics.t;
  every : int;
  log : string -> unit;
}

let create ?(registry = Metrics.default) ?(every = 10)
    ?(log = fun line -> Format.eprintf "%s@." line) () =
  { registry; every = max 1 every; log }

let every t = t.every

let should_sample t ~step = (step + 1) mod t.every = 0

let find t name = Metrics.find_value t.registry name

let summary_line t ~step =
  let v name = Option.value ~default:0.0 (find t name) in
  Printf.sprintf
    "monitor step %d: steps=%.0f cache_hits=%.0f kernels=%.0f \
     queue_depth=%.0f rendezvous_pending=%.0f errors=%.0f"
    step
    (v "octf_session_steps_total")
    (v "octf_session_cache_hits_total")
    (v "octf_executor_kernels_total")
    (* Unlabeled lookups miss labeled families; sum them instead. *)
    (List.fold_left
       (fun acc (s : Metrics.snapshot_sample) ->
         if s.Metrics.name = "octf_queue_depth" then acc +. s.Metrics.value
         else acc)
       0.0
       (Metrics.snapshot t.registry))
    (v "octf_rendezvous_pending")
    (List.fold_left
       (fun acc (s : Metrics.snapshot_sample) ->
         if s.Metrics.name = "octf_session_errors_total" then
           acc +. s.Metrics.value
         else acc)
       0.0
       (Metrics.snapshot t.registry))

let on_step t ~step ?metadata () =
  if should_sample t ~step then begin
    t.log (summary_line t ~step);
    match metadata with
    | Some md -> (
        match md.Session.Run_metadata.step_stats with
        | Some stats ->
            t.log (Format.asprintf "%a" Octf.Step_stats.pp_summary stats)
        | None -> ())
    | None -> ()
  end

let write_snapshot ?(format = `Prometheus) t ~path =
  let body =
    match format with
    | `Prometheus -> Metrics.to_prometheus t.registry
    | `Json -> Metrics.to_json t.registry
  in
  Octf_tensor.Codec.write_file_atomic path body
