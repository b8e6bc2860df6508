(* The process's one timer thread, and the deadlines that use it. *)

open Octf

(* [f ()] and the number of threads it started: the ids of probe
   threads started just before and just after it, less the second
   probe itself. *)
let threads_started f =
  let probe () =
    let th = Thread.create ignore () in
    Thread.join th;
    Thread.id th
  in
  let before = probe () in
  let r = f () in
  let after = probe () in
  (r, after - before - 1)

(* Poll [ready] for up to [within] seconds. *)
let eventually ?(within = 2.0) ready =
  let deadline = Unix.gettimeofday () +. within in
  let rec go () =
    ready ()
    || Unix.gettimeofday () < deadline
       && begin
            Thread.delay 0.005;
            go ()
          end
  in
  go ()

let test_due_order () =
  let m = Mutex.create () and ran = ref [] in
  let record i () =
    Mutex.lock m;
    ran := i :: !ran;
    Mutex.unlock m
  in
  let count () =
    Mutex.lock m;
    let n = List.length !ran in
    Mutex.unlock m;
    n
  in
  let now = Unix.gettimeofday () in
  ignore (Timer.at (now +. 0.03) (record 3));
  ignore (Timer.at (now +. 0.01) (record 1));
  (* a callback that raises stops neither the thread nor later ones *)
  ignore (Timer.at (now +. 0.015) (fun () -> failwith "expected in test"));
  ignore (Timer.at (now +. 0.02) (record 2));
  Alcotest.(check bool) "all ran" true (eventually (fun () -> count () = 3));
  Alcotest.(check (list int)) "in due order" [ 1; 2; 3 ] (List.rev !ran)

let test_cancelled_never_runs () =
  let cancelled = Atomic.make false and sentinel = Atomic.make false in
  let now = Unix.gettimeofday () in
  let entry = Timer.at (now +. 0.02) (fun () -> Atomic.set cancelled true) in
  ignore (Timer.at (now +. 0.05) (fun () -> Atomic.set sentinel true));
  Timer.cancel entry;
  Alcotest.(check bool) "a later entry ran" true
    (eventually (fun () -> Atomic.get sentinel));
  Alcotest.(check bool) "the cancelled one never did" false
    (Atomic.get cancelled)

(* The thread sleeps toward the entry 5 s out; the one 10 ms out must
   wake it. *)
let test_earlier_time_wakes_thread () =
  let far = Timer.at (Unix.gettimeofday () +. 5.0) ignore in
  Fun.protect ~finally:(fun () -> Timer.cancel far) @@ fun () ->
  Thread.delay 0.02;
  let ran_at = Atomic.make None in
  let t0 = Unix.gettimeofday () in
  ignore
    (Timer.at (t0 +. 0.01) (fun () ->
         Atomic.set ran_at (Some (Unix.gettimeofday ()))));
  Alcotest.(check bool) "ran" true
    (eventually (fun () -> Atomic.get ran_at <> None));
  let late = Option.get (Atomic.get ran_at) -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "within 1 s (%.3f s)" late)
    true (late < 1.0)

let test_deadline_tokens_start_no_thread () =
  (* start the timer, should no earlier test have *)
  Cancel.complete (Cancel.create ~deadline:1.0 ());
  let (), started =
    threads_started (fun () ->
        for _ = 1 to 100 do
          Cancel.complete (Cancel.create ~deadline:1.0 ())
        done)
  in
  Alcotest.(check int) "threads started by 100 tokens" 0 started

let suite =
  [
    Alcotest.test_case "callbacks run in due order" `Quick test_due_order;
    Alcotest.test_case "a cancelled callback never runs" `Quick
      test_cancelled_never_runs;
    Alcotest.test_case "an earlier time wakes the thread" `Quick
      test_earlier_time_wakes_thread;
    Alcotest.test_case "deadline tokens start no thread" `Quick
      test_deadline_tokens_start_no_thread;
  ]
