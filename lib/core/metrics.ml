(* Process-wide metrics registry. See metrics.mli for the design notes.

   Locking: the registry mutex guards family creation, a family mutex
   guards child creation, and each child (sample) has its own mutex
   guarding its value. All three are leaves — no metrics code takes any
   other lock — so instrumented modules may update metrics from inside
   their own critical sections (a queue's mutex, the rendezvous mutex,
   the executor's worker domains) without lock-order concerns. *)

type kind = Counter_kind | Gauge_kind | Histogram_kind

type sample = {
  s_labels : (string * string) list;  (* sorted by label name *)
  s_mutex : Mutex.t;
  mutable s_value : float;  (* counter/gauge value; histogram sum *)
  mutable s_count : int;  (* histogram observation count *)
  s_bucket_counts : int array;  (* per-bucket (non-cumulative) counts *)
}

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_buckets : float array;  (* upper bounds, strictly increasing *)
  f_mutex : Mutex.t;
  f_children : (string, sample) Hashtbl.t;  (* key = canonical labels *)
}

type t = { r_mutex : Mutex.t; families : (string, family) Hashtbl.t }

let create () = { r_mutex = Mutex.create (); families = Hashtbl.create 64 }

let default = create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let kind_to_string = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Histogram_kind -> "histogram"

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. *)
let sanitize_name name =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    name

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let label_key labels =
  String.concat "\x00"
    (List.concat_map (fun (k, v) -> [ k; v ]) labels)

let default_buckets =
  [| 1e-5; 1e-4; 5e-4; 1e-3; 5e-3; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 |]

let family registry ~name ~help ~kind ~buckets =
  let name = sanitize_name name in
  with_lock registry.r_mutex (fun () ->
      match Hashtbl.find_opt registry.families name with
      | Some f ->
          if f.f_kind <> kind then
            invalid_arg
              (Printf.sprintf
                 "Metrics: %s already registered as a %s (requested %s)"
                 name (kind_to_string f.f_kind) (kind_to_string kind));
          f
      | None ->
          let f =
            {
              f_name = name;
              f_help = help;
              f_kind = kind;
              f_buckets = buckets;
              f_mutex = Mutex.create ();
              f_children = Hashtbl.create 4;
            }
          in
          Hashtbl.replace registry.families name f;
          f)

let child f labels =
  let labels = canonical_labels labels in
  let key = label_key labels in
  with_lock f.f_mutex (fun () ->
      match Hashtbl.find_opt f.f_children key with
      | Some s -> s
      | None ->
          let s =
            {
              s_labels = labels;
              s_mutex = Mutex.create ();
              s_value = 0.0;
              s_count = 0;
              s_bucket_counts =
                (match f.f_kind with
                | Histogram_kind -> Array.make (Array.length f.f_buckets) 0
                | Counter_kind | Gauge_kind -> [||]);
            }
          in
          Hashtbl.replace f.f_children key s;
          s)

(* Updates lock the sample's mutex directly: no closure per update. *)
let read s f =
  Mutex.lock s.s_mutex;
  let v = f s in
  Mutex.unlock s.s_mutex;
  v

let value s =
  Mutex.lock s.s_mutex;
  let v = s.s_value in
  Mutex.unlock s.s_mutex;
  v

let add_value s x =
  Mutex.lock s.s_mutex;
  s.s_value <- s.s_value +. x;
  Mutex.unlock s.s_mutex

module Counter = struct
  type m = sample

  let v ?(registry = default) ?(help = "") ?(labels = []) name =
    child (family registry ~name ~help ~kind:Counter_kind ~buckets:[||]) labels

  let add_f m x = if x > 0.0 then add_value m x

  let add m n = if n > 0 then add_value m (float_of_int n)

  let incr m = add_value m 1.0

  let value = value
end

module Gauge = struct
  type m = sample

  let v ?(registry = default) ?(help = "") ?(labels = []) name =
    child (family registry ~name ~help ~kind:Gauge_kind ~buckets:[||]) labels

  let set m x =
    Mutex.lock m.s_mutex;
    m.s_value <- x;
    Mutex.unlock m.s_mutex

  let add = add_value

  let incr m = add m 1.0

  let decr m = add m (-1.0)

  let max_to m x =
    Mutex.lock m.s_mutex;
    if x > m.s_value then m.s_value <- x;
    Mutex.unlock m.s_mutex

  let value = value
end

module Histogram = struct
  type m = { h_sample : sample; h_buckets : float array }

  let v ?(registry = default) ?(help = "") ?(labels = [])
      ?(buckets = default_buckets) name =
    let f = family registry ~name ~help ~kind:Histogram_kind ~buckets in
    { h_sample = child f labels; h_buckets = f.f_buckets }

  let observe m x =
    let s = m.h_sample and n = Array.length m.h_buckets in
    let rec place i =
      if i < n && not (x <= m.h_buckets.(i)) then place (i + 1) else i
    in
    let i = place 0 in
    Mutex.lock s.s_mutex;
    s.s_value <- s.s_value +. x;
    s.s_count <- s.s_count + 1;
    if i < n then s.s_bucket_counts.(i) <- s.s_bucket_counts.(i) + 1;
    Mutex.unlock s.s_mutex

  let time m f =
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> observe m (Unix.gettimeofday () -. t0)) f

  let sum m = value m.h_sample

  let count m = read m.h_sample (fun s -> s.s_count)
end

(* ------------------------------------------------------------------ *)
(* Kernel-timing gate                                                  *)
(* ------------------------------------------------------------------ *)

let timing = Atomic.make false

let set_kernel_timing on = Atomic.set timing on

let kernel_timing () = Atomic.get timing

(* ------------------------------------------------------------------ *)
(* Snapshots and exporters                                             *)
(* ------------------------------------------------------------------ *)

type snapshot_sample = {
  name : string;
  kind : [ `Counter | `Gauge | `Histogram ];
  help : string;
  labels : (string * string) list;
  value : float;
  count : int;
  buckets : (float * int) list;  (* (le, cumulative count) *)
}

let snapshot registry =
  let families =
    with_lock registry.r_mutex (fun () ->
        Hashtbl.fold (fun _ f acc -> f :: acc) registry.families [])
    |> List.sort (fun a b -> compare a.f_name b.f_name)
  in
  List.concat_map
    (fun f ->
      let children =
        with_lock f.f_mutex (fun () ->
            Hashtbl.fold (fun k s acc -> (k, s) :: acc) f.f_children [])
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.map
        (fun (_, s) ->
          read s (fun s ->
              let buckets =
                match f.f_kind with
                | Histogram_kind ->
                    let cum = ref 0 in
                    Array.to_list
                      (Array.mapi
                         (fun i le ->
                           cum := !cum + s.s_bucket_counts.(i);
                           (le, !cum))
                         f.f_buckets)
                | Counter_kind | Gauge_kind -> []
              in
              {
                name = f.f_name;
                kind =
                  (match f.f_kind with
                  | Counter_kind -> `Counter
                  | Gauge_kind -> `Gauge
                  | Histogram_kind -> `Histogram);
                help = f.f_help;
                labels = s.s_labels;
                value = s.s_value;
                count = s.s_count;
                buckets;
              }))
        children)
    families

let reset registry =
  let families =
    with_lock registry.r_mutex (fun () ->
        Hashtbl.fold (fun _ f acc -> f :: acc) registry.families [])
  in
  List.iter
    (fun f ->
      let children =
        with_lock f.f_mutex (fun () ->
            Hashtbl.fold (fun _ s acc -> s :: acc) f.f_children [])
      in
      List.iter
        (fun s ->
          Mutex.lock s.s_mutex;
          s.s_value <- 0.0;
          s.s_count <- 0;
          Array.fill s.s_bucket_counts 0 (Array.length s.s_bucket_counts) 0;
          Mutex.unlock s.s_mutex)
        children)
    families

(* Prometheus label values: escape backslash, double-quote, newline. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_name k)
                 (escape_label_value v))
             labels)
      ^ "}"

(* %.17g would be exact but noisy; %g loses precision past ~6 digits.
   Use a short representation that round-trips typical counters. *)
let render_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let to_prometheus registry =
  let buf = Buffer.create 4096 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen_header s.name) then begin
        Hashtbl.replace seen_header s.name ();
        if s.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" s.name
               (String.map (fun c -> if c = '\n' then ' ' else c) s.help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.name
             (match s.kind with
             | `Counter -> "counter"
             | `Gauge -> "gauge"
             | `Histogram -> "histogram"))
      end;
      match s.kind with
      | `Counter | `Gauge ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.name (render_labels s.labels)
               (render_float s.value))
      | `Histogram ->
          List.iter
            (fun (le, cum) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" s.name
                   (render_labels (s.labels @ [ ("le", render_float le) ]))
                   cum))
            s.buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" s.name
               (render_labels (s.labels @ [ ("le", "+Inf") ]))
               s.count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.name (render_labels s.labels)
               (render_float s.value));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.name (render_labels s.labels)
               s.count))
    (snapshot registry);
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let to_json registry =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"type\":\"%s\",\"labels\":{"
           (json_escape s.name)
           (match s.kind with
           | `Counter -> "counter"
           | `Gauge -> "gauge"
           | `Histogram -> "histogram"));
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        s.labels;
      Buffer.add_string buf "}";
      (match s.kind with
      | `Counter | `Gauge ->
          Buffer.add_string buf
            (Printf.sprintf ",\"value\":%s" (json_float s.value))
      | `Histogram ->
          Buffer.add_string buf
            (Printf.sprintf ",\"sum\":%s,\"count\":%d,\"buckets\":["
               (json_float s.value) s.count);
          List.iteri
            (fun j (le, cum) ->
              if j > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_float le)
                   cum))
            s.buckets;
          Buffer.add_string buf "]");
      Buffer.add_string buf "}")
    (snapshot registry);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let find_value ?(labels = []) registry name =
  let labels = canonical_labels labels in
  let name = sanitize_name name in
  List.find_map
    (fun s ->
      if s.name = name && s.labels = labels then Some s.value else None)
    (snapshot registry)
