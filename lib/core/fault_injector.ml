exception Injected of string

type spec =
  | Kill_task of { job : string; task : int; step : int }
  | Fail_kernel of { pattern : string; step : int }
  | Flaky_kernel of { pattern : string; prob : float }
  | Drop_send of { pattern : string; step : int }
  | Delay_send of { pattern : string; step : int; ms : float }
  | Slow_kernel of { pattern : string; step : int; ms : float }
      (* every matching kernel invocation at/after [step] sleeps [ms]
         before running — a persistent straggler (slow reader, slow
         disk), not a one-shot fault like [Delay_send] *)
  | Drop_conn of { peer : string; step : int }
      (* sever the TCP connection to the matching peer the next time a
         frame is sent to it at/after [step] (one-shot) *)
  | Delay_frame of { pattern : string; step : int; ms : float }
      (* hold the first matching outbound frame for [ms] before writing
         it (one-shot) *)
  | Corrupt_frame of { pattern : string; step : int }
      (* flip a payload bit in the first matching outbound frame after
         its checksum is computed, so the receiver sees a
         Checksum_mismatch (one-shot) *)

type send_action = [ `Deliver | `Drop | `Delay of float ]

type net_action = [ `Send | `Drop_conn | `Delay of float | `Corrupt ]

(* One process-wide injector: kernels reach it through a global rather
   than plumbing a handle through every context. [enabled] is a cheap
   unsynchronized fast-path gate; all real state is mutex-protected. *)
type state = {
  mutable specs : (spec * bool ref) list;  (* bool = consumed (one-shot) *)
  mutable seed : int;
  killed : (string * int, unit) Hashtbl.t;
  mutable injected : int;
  mutex : Mutex.t;
}

let state =
  {
    specs = [];
    seed = 0;
    killed = Hashtbl.create 4;
    injected = 0;
    mutex = Mutex.create ();
  }

let enabled = ref false

let with_lock f =
  Mutex.lock state.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.mutex) f

let spec_to_string = function
  | Kill_task { job; task; step } ->
      Printf.sprintf "kill:%s/%d@%d" job task step
  | Fail_kernel { pattern; step } -> Printf.sprintf "kernel:%s@%d" pattern step
  | Flaky_kernel { pattern; prob } ->
      Printf.sprintf "flaky:%s:%g" pattern prob
  | Drop_send { pattern; step } -> Printf.sprintf "drop:%s@%d" pattern step
  | Delay_send { pattern; step; ms } ->
      Printf.sprintf "delay:%s@%d:%g" pattern step ms
  | Slow_kernel { pattern; step; ms } ->
      Printf.sprintf "slow:%s@%d:%g" pattern step ms
  | Drop_conn { peer; step } -> Printf.sprintf "dropconn:%s@%d" peer step
  | Delay_frame { pattern; step; ms } ->
      Printf.sprintf "framedelay:%s@%d:%g" pattern step ms
  | Corrupt_frame { pattern; step } ->
      Printf.sprintf "corrupt:%s@%d" pattern step

let parse_spec s =
  let fail () =
    Error
      (Printf.sprintf
         "bad fault spec %S (expected kill:<job>/<task>@<step> | \
          kernel:<pattern>@<step> | flaky:<pattern>:<prob> | \
          drop:<pattern>@<step> | delay:<pattern>@<step>:<ms> | \
          slow:<pattern>@<step>:<ms> | dropconn:<peer>@<step> | \
          framedelay:<pattern>@<step>:<ms> | corrupt:<pattern>@<step>)"
         s)
  in
  let split_at_step body =
    match String.rindex_opt body '@' with
    | None -> None
    | Some i -> (
        let pat = String.sub body 0 i in
        let rest = String.sub body (i + 1) (String.length body - i - 1) in
        match int_of_string_opt rest with
        | Some step when pat <> "" -> Some (pat, step)
        | _ -> None)
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let body = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "kill" -> (
          match split_at_step body with
          | Some (jt, step) -> (
              match String.split_on_char '/' jt with
              | [ job; task ] -> (
                  match int_of_string_opt task with
                  | Some task when job <> "" ->
                      Ok (Kill_task { job; task; step })
                  | _ -> fail ())
              | _ -> fail ())
          | None -> fail ())
      | "kernel" -> (
          match split_at_step body with
          | Some (pattern, step) -> Ok (Fail_kernel { pattern; step })
          | None -> fail ())
      | "flaky" -> (
          match String.rindex_opt body ':' with
          | None -> fail ()
          | Some j -> (
              let pattern = String.sub body 0 j in
              let p = String.sub body (j + 1) (String.length body - j - 1) in
              match float_of_string_opt p with
              | Some prob when pattern <> "" && prob >= 0.0 && prob <= 1.0 ->
                  Ok (Flaky_kernel { pattern; prob })
              | _ -> fail ()))
      | "drop" -> (
          match split_at_step body with
          | Some (pattern, step) -> Ok (Drop_send { pattern; step })
          | None -> fail ())
      | "dropconn" -> (
          match split_at_step body with
          | Some (peer, step) -> Ok (Drop_conn { peer; step })
          | None -> fail ())
      | "corrupt" -> (
          match split_at_step body with
          | Some (pattern, step) -> Ok (Corrupt_frame { pattern; step })
          | None -> fail ())
      | "delay" | "slow" | "framedelay" -> (
          match String.rindex_opt body ':' with
          | None -> fail ()
          | Some j -> (
              let head = String.sub body 0 j in
              let ms = String.sub body (j + 1) (String.length body - j - 1) in
              match (split_at_step head, float_of_string_opt ms) with
              | Some (pattern, step), Some ms when ms >= 0.0 ->
                  if kind = "delay" then Ok (Delay_send { pattern; step; ms })
                  else if kind = "framedelay" then
                    Ok (Delay_frame { pattern; step; ms })
                  else Ok (Slow_kernel { pattern; step; ms })
              | _ -> fail ()))
      | _ -> fail ())

let parse s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  if parts = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc part ->
        match (acc, parse_spec (String.trim part)) with
        | Error _, _ -> acc
        | Ok specs, Ok spec -> Ok (specs @ [ spec ])
        | Ok _, Error e -> Error e)
      (Ok []) parts

let refresh_enabled_locked () =
  enabled := state.specs <> [] || Hashtbl.length state.killed > 0

let install ?(seed = 0) specs =
  with_lock (fun () ->
      state.specs <- List.map (fun s -> (s, ref false)) specs;
      state.seed <- seed;
      Hashtbl.reset state.killed;
      state.injected <- 0;
      refresh_enabled_locked ())

let env = Octf_tensor.Env.v "OCTF_FAULT" parse
let seed_env = Octf_tensor.Env.int "OCTF_FAULT_SEED"

let install_from_env () =
  Option.iter
    (install ?seed:(Octf_tensor.Env.get seed_env))
    (Octf_tensor.Env.get env)

let reset () =
  with_lock (fun () ->
      state.specs <- [];
      Hashtbl.reset state.killed;
      state.injected <- 0;
      refresh_enabled_locked ())

let active () = !enabled

let injections () = with_lock (fun () -> state.injected)

let kill_task ~job ~task =
  with_lock (fun () ->
      Hashtbl.replace state.killed (job, task) ();
      refresh_enabled_locked ())

let revive_task ~job ~task =
  with_lock (fun () ->
      Hashtbl.remove state.killed (job, task);
      refresh_enabled_locked ())

let task_alive ~job ~task =
  with_lock (fun () -> not (Hashtbl.mem state.killed (job, task)))

let killed_tasks () =
  with_lock (fun () ->
      Hashtbl.fold (fun k () acc -> k :: acc) state.killed [])

let contains ~pattern s =
  let pl = String.length pattern and sl = String.length s in
  pl = 0
  ||
  let rec at i =
    i + pl <= sl && (String.sub s i pl = pattern || at (i + 1))
  in
  at 0

let matches_node pattern (n : Node.t) =
  contains ~pattern n.Node.name || contains ~pattern n.Node.op_type

(* Deterministic per-(seed, step, node) coin for flaky kernels: a
   splitmix64-style finalizer, so the same seed reproduces the same
   failure pattern run after run. *)
let flaky_coin ~seed ~step_id ~node_id =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
      (Int64.add
         (Int64.mul (Int64.of_int step_id) 0xBF58476D1CE4E5B9L)
         (Int64.mul (Int64.of_int (node_id + 1)) 0x94D049BB133111EBL))
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let z = Int64.mul z 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let m_injected kind =
  Metrics.Counter.v ~help:"Faults injected, by kind"
    ~labels:[ ("kind", kind) ]
    "octf_faults_injected_total"

let inject ~kind msg =
  with_lock (fun () -> state.injected <- state.injected + 1);
  Metrics.Counter.incr (m_injected kind);
  raise (Injected msg)

let kernel_hook (n : Node.t) ~step_id =
  if !enabled then begin
    (* Arm step-triggered task kills first, so the device check below
       sees them. *)
    let newly_killed =
      with_lock (fun () ->
          List.filter_map
            (fun (spec, consumed) ->
              match spec with
              | Kill_task { job; task; step }
                when step_id >= step && not !consumed ->
                  consumed := true;
                  Hashtbl.replace state.killed (job, task) ();
                  Some (job, task)
              | _ -> None)
            state.specs)
    in
    ignore newly_killed;
    (match n.Node.assigned_device with
    | Some d ->
        if not (task_alive ~job:d.Device.job ~task:d.Device.task) then
          inject ~kind:"kill"
            (Printf.sprintf "/job:%s/task:%d is down" d.Device.job
               d.Device.task)
    | None -> ());
    (* Persistent stragglers: every matching kernel at/after the step
       sleeps before running. Summed when several specs match; the sleep
       happens outside the injector lock. *)
    let slow =
      with_lock (fun () ->
          List.fold_left
            (fun acc (spec, _) ->
              match spec with
              | Slow_kernel { pattern; step; ms }
                when step_id >= step && matches_node pattern n ->
                  acc +. ms
              | _ -> acc)
            0.0 state.specs)
    in
    if slow > 0.0 then begin
      Metrics.Counter.incr (m_injected "slow");
      with_lock (fun () -> state.injected <- state.injected + 1);
      Thread.delay (slow /. 1000.0)
    end;
    let fire =
      with_lock (fun () ->
          List.find_map
            (fun (spec, consumed) ->
              match spec with
              | Fail_kernel { pattern; step }
                when step_id >= step && (not !consumed)
                     && matches_node pattern n ->
                  consumed := true;
                  Some
                    ( "kernel",
                      Printf.sprintf "kernel fault %s on %s (step %d)"
                        pattern n.Node.name step_id )
              | Flaky_kernel { pattern; prob }
                when matches_node pattern n
                     && flaky_coin ~seed:state.seed ~step_id
                          ~node_id:n.Node.id
                        < prob ->
                  Some
                    ( "flaky",
                      Printf.sprintf "flaky kernel %s on %s (step %d)"
                        pattern n.Node.name step_id )
              | _ -> None)
            state.specs)
    in
    match fire with
    | Some (kind, msg) -> inject ~kind msg
    | None -> ()
  end

let send_hook ~key ~step_id : send_action =
  if not !enabled then `Deliver
  else
    let action =
      with_lock (fun () ->
          List.find_map
            (fun (spec, consumed) ->
              match spec with
              | Drop_send { pattern; step }
                when step_id >= step && (not !consumed)
                     && contains ~pattern key ->
                  consumed := true;
                  state.injected <- state.injected + 1;
                  Some `Drop
              | Delay_send { pattern; step; ms }
                when step_id >= step && (not !consumed)
                     && contains ~pattern key ->
                  consumed := true;
                  state.injected <- state.injected + 1;
                  Some (`Delay (ms /. 1000.0))
              | _ -> None)
            state.specs)
    in
    (match action with
    | Some `Drop -> Metrics.Counter.incr (m_injected "drop")
    | Some (`Delay _) -> Metrics.Counter.incr (m_injected "delay")
    | None -> ());
    (Option.value ~default:`Deliver action :> send_action)

(* Socket-level faults, consulted by the transport just before a frame
   is written. [peer] is "job/task" of the destination; [kind] is the
   frame-type name ("tensor", "run_step", ...); [key] is the payload's
   identifying string (the rendezvous key for tensor frames, else the
   kind); [step_id] is the frame's stream id. Drop_conn matches [peer],
   Delay_frame / Corrupt_frame match [key] or [kind]. *)
let net_hook ~peer ~kind ~key ~step_id : net_action =
  if not !enabled then `Send
  else
    let action =
      with_lock (fun () ->
          List.find_map
            (fun (spec, consumed) ->
              match spec with
              | Drop_conn { peer = pat; step }
                when step_id >= step && (not !consumed)
                     && contains ~pattern:pat peer ->
                  consumed := true;
                  state.injected <- state.injected + 1;
                  Some `Drop_conn
              | Delay_frame { pattern; step; ms }
                when step_id >= step && (not !consumed)
                     && (contains ~pattern key || contains ~pattern kind) ->
                  consumed := true;
                  state.injected <- state.injected + 1;
                  Some (`Delay (ms /. 1000.0))
              | Corrupt_frame { pattern; step }
                when step_id >= step && (not !consumed)
                     && (contains ~pattern key || contains ~pattern kind) ->
                  consumed := true;
                  state.injected <- state.injected + 1;
                  Some `Corrupt
              | _ -> None)
            state.specs)
    in
    (match action with
    | Some `Drop_conn -> Metrics.Counter.incr (m_injected "dropconn")
    | Some (`Delay _) -> Metrics.Counter.incr (m_injected "framedelay")
    | Some `Corrupt -> Metrics.Counter.incr (m_injected "corrupt")
    | None -> ());
    (Option.value ~default:`Send action :> net_action)
