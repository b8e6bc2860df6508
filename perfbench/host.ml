(* Host readings from /proc and the run record that lets a noisy host be
   told apart from a slow program. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (( <> ) "")

(* Tick counters of one "cpu" line of /proc/stat, whose first eight
   fields are user, nice, system, idle, iowait, irq, softirq and steal. *)
type ticks = { idle : int; steal : int; total : int }

let no_ticks = { idle = 0; steal = 0; total = 0 }

let ticks name =
  List.find_map
    (fun line ->
      match words line with
      | n :: fields when n = name -> (
          match List.filteri (fun i _ -> i < 8) (List.map int_of_string_opt fields) with
          | [ Some us; Some ni; Some sy; Some id; Some io; Some irq; Some si; Some st ] ->
              Some { idle = id + io; steal = st; total = us + ni + sy + id + io + irq + si + st }
          | _ -> None)
      | _ -> None)
    (read_lines "/proc/stat")
  |> Option.value ~default:no_ticks

let loadavg_1m () =
  match read_lines "/proc/loadavg" with
  | line :: _ -> (
      match words line with
      | l :: _ -> Option.value ~default:0.0 (float_of_string_opt l)
      | [] -> 0.0)
  | [] -> 0.0

(* A "Key:   123 kB" line of /proc/self/status, in MB. *)
let status_mb key =
  List.find_map
    (fun line ->
      match words line with
      | k :: v :: _ when k = key ^ ":" ->
          Option.map (fun kb -> float_of_int kb /. 1024.0) (int_of_string_opt v)
      | _ -> None)
    (read_lines "/proc/self/status")

let peak_rss_mb () = Option.value ~default:0.0 (status_mb "VmHWM")

let nproc () =
  let n =
    List.length
      (List.filter
         (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
         (read_lines "/proc/cpuinfo"))
  in
  if n > 0 then n else Domain.recommended_domain_count ()

(* The one CPU this process may run on, or [None] when it may run on
   several. perfbench/run.py binds every workload to one CPU. *)
let bound_cpu () =
  List.find_map
    (fun line ->
      match words line with
      | [ "Cpus_allowed_list:"; l ] -> int_of_string_opt l
      | _ -> None)
    (read_lines "/proc/self/status")

let core_ticks = function
  | Some c -> ticks (Printf.sprintf "cpu%d" c)
  | None -> no_ticks

(* Host pressure sampled around the timed phase: the whole host's steal
   ticks and load, and the shares of the bound core's time that it sat
   idle and that the hypervisor gave to other tenants. *)
type pressure = {
  steal_ticks : int;
  core : int option;
  core_idle_share : float;
  core_steal_share : float;
  load_before : float;
  load_after : float;
}

let sample_before () =
  let core = bound_cpu () in
  (core, ticks "cpu", core_ticks core, loadavg_1m ())

let sample_after (core, host0, core0, load_before) =
  let host1 = ticks "cpu" and core1 = core_ticks core in
  let share field =
    let d = core1.total - core0.total in
    if d <= 0 then 0.0 else float_of_int (field core1 - field core0) /. float_of_int d
  in
  {
    steal_ticks = host1.steal - host0.steal;
    core;
    core_idle_share = share (fun t -> t.idle);
    core_steal_share = share (fun t -> t.steal);
    load_before;
    load_after = loadavg_1m ();
  }

let pressure_json p =
  Printf.sprintf
    {|{"steal_ticks":%d,"core":%s,"core_idle_share":%.4f,"core_steal_share":%.4f,"loadavg_1m_before":%.2f,"loadavg_1m_after":%.2f}|}
    p.steal_ticks
    (match p.core with Some c -> string_of_int c | None -> "null")
    p.core_idle_share p.core_steal_share p.load_before p.load_after
