(* A checkpoint is the magic followed by a {!Octf_tensor.Codec} named
   list. Version 1 wrote ranks and counts as i64; its files fail on the
   magic, never misparse. *)

open Octf_tensor

let magic = "OCTFCKPT2"

exception Corrupt of { source : string; detail : string }

let () =
  Printexc.register_printer (function
    | Corrupt { source; detail } ->
        Some (Printf.sprintf "corrupt checkpoint %s: %s" source detail)
    | _ -> None)

let write path entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Codec.put_named b entries;
  Codec.write_file_atomic path (Buffer.contents b)

(* The codec bounds every length field by the bytes left before it
   allocates, so a half-written or bit-flipped checkpoint surfaces as a
   recoverable, descriptive failure in the [Restore] kernel. *)
let read_all path =
  let r = Codec.reader (Codec.read_file path) in
  try
    let m = Codec.get_bytes r (String.length magic) "magic" in
    if m <> magic then Codec.fail "bad magic %S" m;
    let entries = Codec.get_named r in
    Codec.expect_end r;
    entries
  with Codec.Decode_error detail -> raise (Corrupt { source = path; detail })

let read path name =
  match List.assoc_opt name (read_all path) with
  | Some t -> t
  | None -> raise Not_found

let names path = List.map fst (read_all path)
