open Octf_tensor
open Octf

let tmp () = Filename.temp_file "octf_test" ".ckpt"

let test_roundtrip_all_dtypes () =
  let path = tmp () in
  let entries =
    [
      ("f", Tensor.of_float_array [| 2; 2 |] [| 1.5; -2.5; 0.0; 3.25 |]);
      ("i", Tensor.of_int_array [| 3 |] [| -7; 0; 42 |]);
      ("b", Tensor.of_bool_array [| 2 |] [| true; false |]);
      ("s", Tensor.of_string_array [| 2 |] [| "hello"; "" |]);
      ("scalar", Tensor.scalar_f 9.0);
    ]
  in
  Checkpoint_format.write path entries;
  let back = Checkpoint_format.read_all path in
  Alcotest.(check int) "count" 5 (List.length back);
  List.iter
    (fun (name, original) ->
      let restored = List.assoc name back in
      Alcotest.(check bool)
        (name ^ " dtype") true
        (Tensor.dtype restored = Tensor.dtype original);
      Alcotest.(check bool)
        (name ^ " shape") true
        (Tensor.shape restored = Tensor.shape original);
      if Tensor.dtype original <> Dtype.String then
        Alcotest.(check bool)
          (name ^ " data") true
          (Tensor.approx_equal restored original)
      else
        Alcotest.(check bool)
          (name ^ " strings") true
          (Tensor.string_buffer restored = Tensor.string_buffer original))
    entries;
  Sys.remove path

let test_read_single_and_names () =
  let path = tmp () in
  Checkpoint_format.write path
    [ ("a", Tensor.scalar_f 1.0); ("b", Tensor.scalar_f 2.0) ];
  Alcotest.(check (list string)) "names" [ "a"; "b" ]
    (Checkpoint_format.names path);
  Alcotest.(check (float 0.)) "read b" 2.0
    (Tensor.flat_get_f (Checkpoint_format.read path "b") 0);
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Checkpoint_format.read path "zzz"));
  Sys.remove path

let test_bad_magic () =
  let path = tmp () in
  let oc = open_out_bin path in
  output_string oc "NOTACKPT!";
  close_out oc;
  (match Checkpoint_format.read_all path with
  | _ -> Alcotest.fail "expected Corrupt on bad magic"
  | exception Checkpoint_format.Corrupt _ -> ());
  (* An empty version-1 checkpoint (i64 entry count) fails on its
     magic, never misparses. *)
  let oc = open_out_bin path in
  output_string oc "OCTFCKPT1";
  output_string oc (String.make 8 '\000');
  close_out oc;
  (match Checkpoint_format.read_all path with
  | _ -> Alcotest.fail "expected Corrupt on a version-1 file"
  | exception Checkpoint_format.Corrupt { detail; _ } ->
      Alcotest.(check bool) detail true
        (String.starts_with ~prefix:"bad magic" detail));
  Sys.remove path

(* A structurally-valid checkpoint used as the corruption target. *)
let write_sample path =
  Checkpoint_format.write path
    [
      ("w", Tensor.of_float_array [| 2; 2 |] [| 1.0; 2.0; 3.0; 4.0 |]);
      ("names", Tensor.of_string_array [| 2 |] [| "ab"; "cdef" |]);
    ]

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let spit path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Every malformed file must surface as Corrupt — a torn write must
   never escape as End_of_file, Invalid_argument or a hang. *)
let check_corrupt what path =
  match Checkpoint_format.read_all path with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Checkpoint_format.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Corrupt, got %s" what
        (Printexc.to_string e)

let test_truncation_all_offsets () =
  let path = tmp () in
  write_sample path;
  let full = slurp path in
  (* Cut the file at every prefix length: each one is a torn write. *)
  for len = 0 to String.length full - 1 do
    spit path (String.sub full 0 len);
    check_corrupt (Printf.sprintf "truncated at %d" len) path
  done;
  Sys.remove path

let test_bit_flips () =
  let path = tmp () in
  write_sample path;
  let full = slurp path in
  (* Flip one bit per byte position; the reader must either detect the
     damage (Corrupt) or still parse (flips inside float payloads
     change values, not structure) — never crash another way. *)
  for i = 0 to String.length full - 1 do
    let b = Bytes.of_string full in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x80));
    spit path (Bytes.to_string b);
    match Checkpoint_format.read_all path with
    | _ -> ()
    | exception Checkpoint_format.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "bit flip at %d: expected Corrupt, got %s" i
          (Printexc.to_string e)
  done;
  Sys.remove path

let test_hostile_lengths () =
  let path = tmp () in
  (* Claimed entry count/length fields far beyond the file size must be
     rejected before allocation, not trusted, and past the magic check. *)
  let check_hostile what contents =
    spit path contents;
    match Checkpoint_format.read_all path with
    | _ -> Alcotest.failf "%s: expected Corrupt" what
    | exception Checkpoint_format.Corrupt { detail; _ } ->
        if String.starts_with ~prefix:"bad magic" detail then
          Alcotest.failf "%s: stopped at the magic" what
  in
  let buf = Buffer.create 64 in
  Buffer.add_string buf "OCTFCKPT2";
  Codec.put_u32 buf 0x7FFFFFFF;
  check_hostile "hostile entry count" (Buffer.contents buf);
  (* One String tensor that claims 2^24 elements but carries one. *)
  let buf = Buffer.create 64 in
  Buffer.add_string buf "OCTFCKPT2";
  Codec.put_u32 buf 1;
  Codec.put_string buf "x";
  Codec.put_string buf "string";
  Codec.put_u32 buf 1;
  Codec.put_i64 buf (1 lsl 24);
  Codec.put_u32 buf (1 lsl 24);
  Codec.put_string buf "x";
  check_hostile "hostile element count" (Buffer.contents buf);
  Sys.remove path

let test_overwrite_atomic () =
  let path = tmp () in
  Checkpoint_format.write path [ ("x", Tensor.scalar_f 1.0) ];
  Checkpoint_format.write path [ ("x", Tensor.scalar_f 2.0) ];
  Alcotest.(check (float 0.)) "latest wins" 2.0
    (Tensor.flat_get_f (Checkpoint_format.read path "x") 0);
  Alcotest.(check bool) "no temp file left" false
    (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let prop_float_roundtrip =
  QCheck.Test.make ~name:"checkpoint float roundtrip" ~count:30
    QCheck.(small_list (float_range (-1e6) 1e6))
    (fun l ->
      l = []
      ||
      let a = Array.of_list l in
      let t = Tensor.of_float_array [| Array.length a |] a in
      let path = tmp () in
      Checkpoint_format.write path [ ("t", t) ];
      let back = Checkpoint_format.read path "t" in
      Sys.remove path;
      Tensor.approx_equal ~tol:0.0 back t)

let suite =
  [
    Alcotest.test_case "roundtrip all dtypes" `Quick test_roundtrip_all_dtypes;
    Alcotest.test_case "read single / names" `Quick test_read_single_and_names;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "truncation at every offset" `Quick
      test_truncation_all_offsets;
    Alcotest.test_case "single bit flips" `Quick test_bit_flips;
    Alcotest.test_case "hostile length fields" `Quick test_hostile_lengths;
    Alcotest.test_case "atomic overwrite" `Quick test_overwrite_atomic;
    QCheck_alcotest.to_alcotest prop_float_roundtrip;
  ]
