(* Entries ordered by time, then by registration. *)
module Due = Map.Make (struct
  type t = float * int

  let compare = compare
end)

type t = Due.key

let mutex = Mutex.create ()
let due = ref Due.empty
let next_id = ref 0

(* The time the thread sleeps toward; [neg_infinity] while it is awake
   and will read [due] again before it sleeps. Only an earlier time
   needs to wake it. *)
let sleeping_until = ref neg_infinity

let run_callback _ f =
  try f ()
  with e ->
    Printf.eprintf "octf: timer callback raised %s\n%!" (Printexc.to_string e)

let rec run wake_r =
  Mutex.lock mutex;
  let now = Unix.gettimeofday () in
  let ready, _, later = Due.split (now, max_int) !due in
  due := later;
  let next =
    match Due.min_binding_opt later with Some ((t, _), _) -> t | None -> infinity
  in
  let idle = Due.is_empty ready in
  sleeping_until := if idle then next else neg_infinity;
  Mutex.unlock mutex;
  (if not idle then Due.iter run_callback ready
   else
     let timeout = if next = infinity then -1.0 else next -. now in
     match Unix.select [ wake_r ] [] [] timeout with
     | [], _, _ -> ()
     | _ -> ignore (Unix.read wake_r (Bytes.create 64) 0 64)
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  run wake_r

(* Forced under [mutex]: one thread and one pipe per process. *)
let wake_w =
  lazy
    (let wake_r, wake_w = Unix.pipe ~cloexec:true () in
     ignore (Thread.create run wake_r);
     wake_w)

let at time f =
  Mutex.protect mutex @@ fun () ->
  let wake_w = Lazy.force wake_w in
  let key = (time, !next_id) in
  incr next_id;
  due := Due.add key f !due;
  if time < !sleeping_until then begin
    sleeping_until := neg_infinity;
    ignore (Unix.single_write_substring wake_w "!" 0 1)
  end;
  key

let cancel key = Mutex.protect mutex (fun () -> due := Due.remove key !due)
