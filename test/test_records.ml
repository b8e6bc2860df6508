(* Record files and the Figure 1 reader operations. *)

open Octf_tensor
open Octf
module B = Builder

let tmp () = Filename.temp_file "octf_rec" ".rec"

let test_container_roundtrip () =
  let path = tmp () in
  let records = [ "alpha"; ""; String.make 1000 'x' ] in
  Record_format.write_records path records;
  Alcotest.(check (list string)) "roundtrip" records
    (Record_format.read_records path);
  Record_format.append_records path [ "tail" ];
  Alcotest.(check int) "appended" 4
    (List.length (Record_format.read_records path));
  Sys.remove path

let test_container_corruption_detected () =
  let path = tmp () in
  Record_format.write_records path [ "hello world" ];
  (* Flip one payload byte. *)
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string contents in
  Bytes.set b (Bytes.length b - 6) 'X';
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Record_format.read_records path with
  | _ -> Alcotest.fail "expected checksum failure"
  | exception Record_format.Corrupt _ -> ());
  (* A file in the version-1 container fails on its magic. *)
  let oc = open_out_bin path in
  output_string oc "OCTFREC1";
  close_out oc;
  (match Record_format.read_records path with
  | _ -> Alcotest.fail "expected bad magic"
  | exception Record_format.Corrupt { detail; _ } ->
      Alcotest.(check bool) detail true
        (String.starts_with ~prefix:"bad magic" detail));
  Sys.remove path

let check_corrupt_file what path =
  match Record_format.read_records path with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Record_format.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Corrupt, got %s" what
        (Printexc.to_string e)

(* A torn write at any offset must be a structured Corrupt, never a
   silently-shortened record list or an escaped End_of_file. *)
let test_container_truncation_all_offsets () =
  let path = tmp () in
  Record_format.write_records path [ "alpha"; "beta"; String.make 64 'z' ];
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* Exact record boundaries are valid short files; anywhere else a
     truncation is torn. Magic is 8 bytes; each record costs
     8 (length) + body + 4 (checksum). *)
  let boundaries =
    List.fold_left
      (fun acc body -> (List.hd acc + 8 + String.length body + 4) :: acc)
      [ 8 ]
      [ "alpha"; "beta"; String.make 64 'z' ]
  in
  for len = 0 to String.length full - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub full 0 len);
    close_out oc;
    if List.mem len boundaries then
      ignore (Record_format.read_records path : string list)
    else check_corrupt_file (Printf.sprintf "truncated at %d" len) path
  done;
  Sys.remove path

let test_example_corruption () =
  let encoded =
    Record_format.encode_example
      [
        ("pixels", Tensor.of_float_array [| 3 |] [| 1.0; 2.0; 3.0 |]);
        ("tag", Tensor.scalar_s "cat");
      ]
  in
  (* Truncation at every prefix of the example string. *)
  for len = 0 to String.length encoded - 1 do
    match Record_format.decode_example (String.sub encoded 0 len) with
    | _ -> Alcotest.failf "truncated example at %d: expected Corrupt" len
    | exception Record_format.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "truncated example at %d: expected Corrupt, got %s" len
          (Printexc.to_string e)
  done;
  (* Bit flips must never escape as anything but Corrupt (structural
     damage) or a successful parse (payload damage). *)
  for i = 0 to String.length encoded - 1 do
    let b = Bytes.of_string encoded in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match Record_format.decode_example (Bytes.to_string b) with
    | _ -> ()
    | exception Record_format.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "bit flip at %d: expected Corrupt, got %s" i
          (Printexc.to_string e)
  done;
  (* One entry whose String tensor claims 2^24 elements but carries one
     string: the count is bounded by the bytes left. *)
  let b = Buffer.create 64 in
  Codec.put_u32 b 1;
  Codec.put_string b "x";
  Codec.put_string b "string";
  Codec.put_u32 b 1;
  Codec.put_i64 b (1 lsl 24);
  Codec.put_u32 b (1 lsl 24);
  Codec.put_string b "x";
  match Record_format.decode_example (Buffer.contents b) with
  | _ -> Alcotest.fail "hostile element count: expected Corrupt"
  | exception Record_format.Corrupt _ -> ()

let test_example_roundtrip () =
  let entries =
    [
      ("pixels", Tensor.of_float_array [| 2; 2 |] [| 0.1; 0.2; 0.3; 0.4 |]);
      ("label", Tensor.scalar_i 3);
      ("name", Tensor.scalar_s "cat");
    ]
  in
  let decoded =
    Record_format.decode_example (Record_format.encode_example entries)
  in
  Alcotest.(check int) "count" 3 (List.length decoded);
  Alcotest.(check bool) "pixels" true
    (Tensor.approx_equal (List.assoc "pixels" decoded)
       (List.assoc "pixels" entries));
  Alcotest.(check int) "label" 3
    (Tensor.flat_get_i (List.assoc "label" decoded) 0);
  Alcotest.(check string) "name" "cat"
    (Tensor.get_s (List.assoc "name" decoded) [||])

let prop_example_roundtrip =
  QCheck.Test.make ~name:"example codec roundtrip" ~count:50
    QCheck.(small_list (float_range (-100.) 100.))
    (fun l ->
      l = []
      ||
      let a = Array.of_list l in
      let t = Tensor.of_float_array [| Array.length a |] a in
      let back =
        Record_format.decode_example
          (Record_format.encode_example [ ("x", t) ])
      in
      Tensor.approx_equal ~tol:0.0 (List.assoc "x" back) t)

let test_reader_ops_drain_in_order () =
  let path = tmp () in
  let records =
    List.init 5 (fun i ->
        Record_format.encode_example [ ("v", Tensor.scalar_f (float_of_int i)) ])
  in
  Record_format.write_records path records;
  let b = B.create () in
  let reader = B.record_reader b ~files:[ path ] () in
  let record = B.read_record b reader in
  let v = List.hd (B.decode_example b record ~features:[ "v" ]) in
  let s = Session.create (B.graph b) in
  for i = 0 to 4 do
    let value = List.hd (Session.run s [ v ]) in
    Alcotest.(check (float 0.)) "in order" (float_of_int i)
      (Tensor.flat_get_f value 0)
  done;
  (* Exhausted: end-of-input surfaces as a step error. *)
  (match Session.run s [ v ] with
  | _ -> Alcotest.fail "expected end of input"
  | exception Session.Run_error _ -> ());
  Sys.remove path

let test_reader_multiple_files () =
  let p1 = tmp () and p2 = tmp () in
  let enc i =
    Record_format.encode_example [ ("v", Tensor.scalar_i i) ]
  in
  Record_format.write_records p1 [ enc 1; enc 2 ];
  Record_format.write_records p2 [ enc 3 ];
  let b = B.create () in
  let reader = B.record_reader b ~files:[ p1; p2 ] () in
  let v =
    List.hd (B.decode_example b (B.read_record b reader) ~features:[ "v" ])
  in
  let s = Session.create (B.graph b) in
  let total = ref 0 in
  for _ = 1 to 3 do
    total := !total + Tensor.flat_get_i (List.hd (Session.run s [ v ])) 0
  done;
  Alcotest.(check int) "all files read" 6 !total;
  Sys.remove p1;
  Sys.remove p2

let test_missing_feature_errors () =
  let path = tmp () in
  Record_format.write_records path
    [ Record_format.encode_example [ ("a", Tensor.scalar_f 1.0) ] ];
  let b = B.create () in
  let reader = B.record_reader b ~files:[ path ] () in
  let v =
    List.hd
      (B.decode_example b (B.read_record b reader) ~features:[ "missing" ])
  in
  let s = Session.create (B.graph b) in
  (match Session.run s [ v ] with
  | _ -> Alcotest.fail "expected missing-feature error"
  | exception Session.Run_error _ -> ());
  Sys.remove path

let test_image_dataset_writer () =
  let path = tmp () in
  let rng = Rng.create 8 in
  Octf_data.Records.write_image_dataset rng ~path ~examples:10 ~size:6
    ~channels:1 ~classes:3;
  let records = Record_format.read_records path in
  Alcotest.(check int) "ten records" 10 (List.length records);
  let first = Record_format.decode_example (List.hd records) in
  Alcotest.(check (array int)) "pixels shape" [| 6; 6; 1 |]
    (Tensor.shape (List.assoc "pixels" first));
  let label = Tensor.flat_get_i (List.assoc "label" first) 0 in
  Alcotest.(check bool) "label range" true (label >= 0 && label < 3);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "container roundtrip" `Quick test_container_roundtrip;
    Alcotest.test_case "corruption detected" `Quick
      test_container_corruption_detected;
    Alcotest.test_case "truncation at every offset" `Quick
      test_container_truncation_all_offsets;
    Alcotest.test_case "example corruption" `Quick test_example_corruption;
    Alcotest.test_case "example roundtrip" `Quick test_example_roundtrip;
    QCheck_alcotest.to_alcotest prop_example_roundtrip;
    Alcotest.test_case "reader drains in order" `Quick
      test_reader_ops_drain_in_order;
    Alcotest.test_case "multiple files" `Quick test_reader_multiple_files;
    Alcotest.test_case "missing feature" `Quick test_missing_feature_errors;
    Alcotest.test_case "image dataset writer" `Quick test_image_dataset_writer;
  ]
