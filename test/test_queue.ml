open Octf_tensor
open Octf

let element v = [| Tensor.scalar_f v |]

let test_fifo_order () =
  let q = Queue_impl.create ~name:"q" ~capacity:4 ~num_components:1 () in
  Queue_impl.enqueue q (element 1.0);
  Queue_impl.enqueue q (element 2.0);
  Queue_impl.enqueue q (element 3.0);
  Alcotest.(check int) "size" 3 (Queue_impl.size q);
  let pop () = Tensor.flat_get_f (Queue_impl.dequeue q).(0) 0 in
  Alcotest.(check (float 0.)) "first" 1.0 (pop ());
  Alcotest.(check (float 0.)) "second" 2.0 (pop ());
  Alcotest.(check (float 0.)) "third" 3.0 (pop ())

let test_component_check () =
  let q = Queue_impl.create ~name:"q" ~capacity:2 ~num_components:2 () in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Queue q: enqueue of 1 components, expected 2")
    (fun () -> Queue_impl.enqueue q (element 1.0))

let test_blocking_backpressure () =
  (* Enqueue into a full queue blocks until a consumer drains it. *)
  let q = Queue_impl.create ~name:"q" ~capacity:1 ~num_components:1 () in
  Queue_impl.enqueue q (element 1.0);
  let second_done = ref false in
  let producer =
    Thread.create
      (fun () ->
        Queue_impl.enqueue q (element 2.0);
        second_done := true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "producer blocked" false !second_done;
  ignore (Queue_impl.dequeue q);
  Thread.join producer;
  Alcotest.(check bool) "producer resumed" true !second_done;
  Alcotest.(check (float 0.)) "drained in order" 2.0
    (Tensor.flat_get_f (Queue_impl.dequeue q).(0) 0)

let test_blocking_dequeue () =
  let q = Queue_impl.create ~name:"q" ~capacity:1 ~num_components:1 () in
  let result = ref 0.0 in
  let consumer =
    Thread.create
      (fun () -> result := Tensor.flat_get_f (Queue_impl.dequeue q).(0) 0)
      ()
  in
  Thread.delay 0.05;
  Queue_impl.enqueue q (element 7.5);
  Thread.join consumer;
  Alcotest.(check (float 0.)) "received" 7.5 !result

let test_close_semantics () =
  let q = Queue_impl.create ~name:"q" ~capacity:4 ~num_components:1 () in
  Queue_impl.enqueue q (element 1.0);
  Queue_impl.close q;
  (* Drains remaining elements... *)
  Alcotest.(check (float 0.)) "drain" 1.0
    (Tensor.flat_get_f (Queue_impl.dequeue q).(0) 0);
  (* ...then raises. *)
  Alcotest.check_raises "dequeue after drain" (Queue_impl.Closed "q")
    (fun () -> ignore (Queue_impl.dequeue q));
  Alcotest.check_raises "enqueue after close" (Queue_impl.Closed "q")
    (fun () -> Queue_impl.enqueue q (element 2.0))

let test_close_wakes_blocked () =
  let q = Queue_impl.create ~name:"q" ~capacity:1 ~num_components:1 () in
  let got_closed = ref false in
  let consumer =
    Thread.create
      (fun () ->
        try ignore (Queue_impl.dequeue q)
        with Queue_impl.Closed _ -> got_closed := true)
      ()
  in
  Thread.delay 0.05;
  Queue_impl.close q;
  Thread.join consumer;
  Alcotest.(check bool) "woken with Closed" true !got_closed

let test_dequeue_many_stacks () =
  let q = Queue_impl.create ~name:"q" ~capacity:8 ~num_components:2 () in
  for i = 1 to 3 do
    Queue_impl.enqueue q
      [| Tensor.scalar_f (float_of_int i);
         Tensor.of_float_array [| 2 |] [| float_of_int i; 0.0 |] |]
  done;
  let batched = Queue_impl.dequeue_many q 3 in
  Alcotest.(check (array int)) "component 0 shape" [| 3 |]
    (Tensor.shape batched.(0));
  Alcotest.(check (array int)) "component 1 shape" [| 3; 2 |]
    (Tensor.shape batched.(1));
  Alcotest.(check (float 0.)) "stacked order" 2.0
    (Tensor.get_f batched.(0) [| 1 |])

(* DequeueMany moves elements exactly: strings are not numbers, and an
   int64 past 2^53 has no exact float. *)
let test_dequeue_many_string () =
  let q = Queue_impl.create ~name:"q" ~capacity:4 ~num_components:1 () in
  List.iter
    (fun s ->
      Queue_impl.enqueue q [| Tensor.of_string_array [| 2 |] [| s; "" |] |])
    [ "alpha"; "beta" ];
  let batched = (Queue_impl.dequeue_many q 2).(0) in
  Alcotest.(check (array int)) "shape" [| 2; 2 |] (Tensor.shape batched);
  Alcotest.(check (array string)) "strings" [| "alpha"; ""; "beta"; "" |]
    (Tensor.string_buffer batched)

let test_dequeue_many_i64 () =
  let big = (1 lsl 53) + 1 in
  let q = Queue_impl.create ~name:"q" ~capacity:4 ~num_components:1 () in
  List.iter
    (fun v -> Queue_impl.enqueue q [| Tensor.scalar_i ~dtype:Dtype.I64 v |])
    [ big; -big ];
  let batched = (Queue_impl.dequeue_many q 2).(0) in
  Alcotest.(check (array int)) "int64 values" [| big; -big |]
    (Tensor.int_buffer batched)

let test_try_dequeue () =
  let q = Queue_impl.create ~name:"q" ~capacity:2 ~num_components:1 () in
  Alcotest.(check bool) "empty" true (Queue_impl.try_dequeue q = None);
  Queue_impl.enqueue q (element 1.0);
  Alcotest.(check bool) "nonempty" true (Queue_impl.try_dequeue q <> None)

let test_shuffle_queue_is_permutation () =
  let q =
    Queue_impl.create
      ~kind:(Queue_impl.Shuffle (Rng.create 3))
      ~name:"sq" ~capacity:16 ~num_components:1 ()
  in
  for i = 0 to 9 do
    Queue_impl.enqueue q (element (float_of_int i))
  done;
  let out =
    List.init 10 (fun _ -> Tensor.flat_get_f (Queue_impl.dequeue q).(0) 0)
  in
  Alcotest.(check (list (float 0.)))
    "permutation of inputs"
    (List.init 10 float_of_int)
    (List.sort compare out)

let test_concurrent_producers_consumers () =
  let q = Queue_impl.create ~name:"q" ~capacity:4 ~num_components:1 () in
  let total = 200 in
  let sum = ref 0.0 in
  let sum_mutex = Mutex.create () in
  let producers =
    List.init 4 (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to (total / 4) - 1 do
              Queue_impl.enqueue q (element (float_of_int ((p * 1000) + i)))
            done)
          ())
  in
  let consumers =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 0 to (total / 2) - 1 do
              let v = Tensor.flat_get_f (Queue_impl.dequeue q).(0) 0 in
              Mutex.lock sum_mutex;
              sum := !sum +. v;
              Mutex.unlock sum_mutex
            done)
          ())
  in
  List.iter Thread.join producers;
  List.iter Thread.join consumers;
  let expected =
    List.fold_left ( +. ) 0.0
      (List.concat_map
         (fun p -> List.init (total / 4) (fun i -> float_of_int ((p * 1000) + i)))
         [ 0; 1; 2; 3 ])
  in
  Alcotest.(check (float 0.)) "all elements transferred once" expected !sum

let suite =
  [
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "component check" `Quick test_component_check;
    Alcotest.test_case "backpressure" `Quick test_blocking_backpressure;
    Alcotest.test_case "blocking dequeue" `Quick test_blocking_dequeue;
    Alcotest.test_case "close semantics" `Quick test_close_semantics;
    Alcotest.test_case "close wakes blocked" `Quick test_close_wakes_blocked;
    Alcotest.test_case "dequeue_many stacks" `Quick test_dequeue_many_stacks;
    Alcotest.test_case "dequeue_many string queue" `Quick
      test_dequeue_many_string;
    Alcotest.test_case "dequeue_many int64 above 2^53" `Quick
      test_dequeue_many_i64;
    Alcotest.test_case "try_dequeue" `Quick test_try_dequeue;
    Alcotest.test_case "shuffle queue" `Quick test_shuffle_queue_is_permutation;
    Alcotest.test_case "concurrent access" `Quick
      test_concurrent_producers_consumers;
  ]
