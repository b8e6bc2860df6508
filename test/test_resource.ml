open Octf_tensor
open Octf

let test_variable_lifecycle () =
  let v = Resource.make_variable ~name:"w" ~dtype:Dtype.F32 ~shape:[| 2 |] in
  Alcotest.check_raises "read before init"
    (Failure "variable \"w\" read before initialization") (fun () ->
      ignore (Resource.variable_read v));
  Resource.variable_assign v (Tensor.of_float_array [| 2 |] [| 1.; 2. |]);
  Alcotest.(check (float 0.)) "read" 2.0
    (Tensor.flat_get_f (Resource.variable_read v) 1)

let test_variable_type_checks () =
  let v = Resource.make_variable ~name:"w" ~dtype:Dtype.F32 ~shape:[| 2 |] in
  Alcotest.check_raises "dtype"
    (Invalid_argument "variable \"w\": assigning int32 to float32") (fun () ->
      Resource.variable_assign v (Tensor.of_int_array [| 2 |] [| 1; 2 |]));
  Alcotest.check_raises "shape"
    (Invalid_argument "variable \"w\": assigning shape [3] to [2]") (fun () ->
      Resource.variable_assign v (Tensor.zeros Dtype.F32 [| 3 |]))

let test_update_snapshot_isolation () =
  (* Updates replace the buffer: a previously read tensor is a stable
     snapshot, the in-place-update-with-copy semantics kernels rely on. *)
  let v = Resource.make_variable ~name:"w" ~dtype:Dtype.F32 ~shape:[| 1 |] in
  Resource.variable_assign v (Tensor.of_float_array [| 1 |] [| 1.0 |]);
  let snapshot = Resource.variable_read v in
  ignore
    (Resource.variable_update ~hand_out:true v (fun old ->
         Tensor_ops.add old (Tensor.scalar_f 1.0)));
  Alcotest.(check (float 0.)) "snapshot stable" 1.0
    (Tensor.flat_get_f snapshot 0);
  Alcotest.(check (float 0.)) "updated" 2.0
    (Tensor.flat_get_f (Resource.variable_read v) 0)

let test_concurrent_updates_atomic () =
  (* The += combiner from many threads must lose no updates (the PS
     write-combiner guarantee, §2.2). *)
  let v = Resource.make_variable ~name:"c" ~dtype:Dtype.F32 ~shape:[||] in
  Resource.variable_assign v (Tensor.scalar_f 0.0);
  let threads =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 500 do
              ignore
                (Resource.variable_update ~hand_out:true v (fun old ->
                     Tensor_ops.add old (Tensor.scalar_f 1.0)))
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check (float 0.)) "no lost updates" 4000.0
    (Tensor.flat_get_f (Resource.variable_read v) 0)

let test_manager_find_or_create () =
  let m = Resource_manager.create () in
  let mk () =
    Resource.Variable
      (Resource.make_variable ~name:"v" ~dtype:Dtype.F32 ~shape:[||])
  in
  let a = Resource_manager.find_or_create m "v" mk in
  let b = Resource_manager.find_or_create m "v" mk in
  Alcotest.(check bool) "same resource" true (a == b);
  Alcotest.(check bool) "find" true (Resource_manager.find m "v" <> None);
  Alcotest.(check bool) "missing" true (Resource_manager.find m "w" = None)

let test_manager_listing () =
  let m = Resource_manager.create () in
  let mkv name =
    ignore
      (Resource_manager.find_or_create m name (fun () ->
           Resource.Variable
             (Resource.make_variable ~name ~dtype:Dtype.F32 ~shape:[||])))
  in
  mkv "a";
  ignore
    (Resource_manager.find_or_create m "q" (fun () ->
         Resource.Queue
           (Queue_impl.create ~name:"q" ~capacity:1 ~num_components:1 ())));
  mkv "b";
  Alcotest.(check (list string)) "creation order" [ "a"; "q"; "b" ]
    (Resource_manager.names m);
  Alcotest.(check int) "variables only" 2
    (List.length (Resource_manager.variables m));
  Resource_manager.clear m;
  Alcotest.(check (list string)) "cleared" [] (Resource_manager.names m)

let suite =
  [
    Alcotest.test_case "variable lifecycle" `Quick test_variable_lifecycle;
    Alcotest.test_case "variable type checks" `Quick test_variable_type_checks;
    Alcotest.test_case "snapshot isolation" `Quick test_update_snapshot_isolation;
    Alcotest.test_case "concurrent updates" `Quick test_concurrent_updates_atomic;
    Alcotest.test_case "manager find_or_create" `Quick test_manager_find_or_create;
    Alcotest.test_case "manager listing" `Quick test_manager_listing;
  ]
