(* A record file is the magic, then per record an i64 length, the body
   and a u32 {!Octf_tensor.Codec.checksum} of the body. An example is a
   codec named list. Version 1 examples wrote no element count; its
   files fail on the magic, never misparse. *)

open Octf_tensor

let magic = "OCTFREC2"

exception Corrupt of { source : string; detail : string }

let () =
  Printexc.register_printer (function
    | Corrupt { source; detail } ->
        Some (Printf.sprintf "corrupt record data %s: %s" source detail)
    | _ -> None)

let decoding source f =
  try f () with Codec.Decode_error detail -> raise (Corrupt { source; detail })

let framed records =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Codec.put_i64 b (String.length r);
      Buffer.add_string b r;
      Codec.put_u32 b (Codec.checksum r))
    records;
  Buffer.contents b

let write_records path records =
  Codec.write_file_atomic path (magic ^ framed records)

(* Appending rewrites the file through the same temp-file rename, so a
   failed append leaves the old file whole. *)
let append_records path records =
  if not (Sys.file_exists path) then write_records path records
  else Codec.write_file_atomic path (Codec.read_file path ^ framed records)

(* The reader must distinguish a clean end (the cursor exactly at a
   record boundary) from a torn write: a partial length prefix, a body
   cut short, or a missing checksum are each a structured {!Corrupt},
   never a silent truncation of the record list. *)
let read_records path =
  let r = Codec.reader (Codec.read_file path) in
  decoding path (fun () ->
      let m = Codec.get_bytes r (String.length magic) "magic" in
      if m <> magic then Codec.fail "bad magic %S" m;
      let rec go acc =
        if Codec.remaining r = 0 then List.rev acc
        else
          let body = Codec.get_bytes r (Codec.get_i64 r) "record body" in
          let ck = Codec.get_u32 r in
          if ck <> Codec.checksum body then
            Codec.fail "checksum mismatch (expected %#x, found %#x)"
              (Codec.checksum body) ck;
          go (body :: acc)
      in
      go [])

let encode_example entries =
  let b = Buffer.create 256 in
  Codec.put_named b entries;
  Buffer.contents b

let decode_example s =
  decoding "<record>" (fun () ->
      let r = Codec.reader s in
      let entries = Codec.get_named r in
      Codec.expect_end r;
      entries)
