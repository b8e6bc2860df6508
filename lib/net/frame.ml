(* Length-prefixed binary framing over a stream socket.

   Every frame is a 14-byte header followed by the payload:

     offset  size  field
     0       4     payload length, u32 LE
     4       1     frame type
     5       1     flags (reserved, must be 0)
     6       4     stream id, u32 LE (the step id for step-scoped frames)
     10      4     payload checksum, u32 LE (Octf_tensor.Codec.checksum,
                   the positional byte sum records use too)

   Malformed input maps onto the typed {!error} taxonomy and is raised
   as [Frame_error]; a clean EOF at a frame boundary raises [Closed].
   The reader never hangs on garbage: the length field is validated
   before any allocation, and EOF mid-frame is a [Protocol_error]. *)

type frame_type =
  | Hello
  | Ping
  | Pong
  | Tensor
  | Run_step
  | Step_done
  | Cancel_step
  | Error_frame
  | Goodbye

let type_code = function
  | Hello -> 1
  | Ping -> 2
  | Pong -> 3
  | Tensor -> 4
  | Run_step -> 5
  | Step_done -> 6
  | Cancel_step -> 7
  | Error_frame -> 8
  | Goodbye -> 9

let type_of_code = function
  | 1 -> Some Hello
  | 2 -> Some Ping
  | 3 -> Some Pong
  | 4 -> Some Tensor
  | 5 -> Some Run_step
  | 6 -> Some Step_done
  | 7 -> Some Cancel_step
  | 8 -> Some Error_frame
  | 9 -> Some Goodbye
  | _ -> None

let type_name = function
  | Hello -> "hello"
  | Ping -> "ping"
  | Pong -> "pong"
  | Tensor -> "tensor"
  | Run_step -> "run_step"
  | Step_done -> "step_done"
  | Cancel_step -> "cancel_step"
  | Error_frame -> "error"
  | Goodbye -> "goodbye"

type t = { ftype : frame_type; flags : int; stream_id : int; payload : string }

type error =
  | Unknown_frame of { frame_type : int; length : int }
  | Invalid_length of { frame_type : int; length : int; max : int }
  | Checksum_mismatch of { expected : int; actual : int }
  | Protocol_error of string

exception Frame_error of error

exception Closed
(* clean EOF at a frame boundary: the peer closed the socket *)

let error_kind = function
  | Unknown_frame _ -> "unknown_frame"
  | Invalid_length _ -> "invalid_length"
  | Checksum_mismatch _ -> "checksum_mismatch"
  | Protocol_error _ -> "protocol_error"

let error_to_string = function
  | Unknown_frame { frame_type; length } ->
      Printf.sprintf "unknown frame type %d (length %d)" frame_type length
  | Invalid_length { frame_type; length; max } ->
      Printf.sprintf "invalid length %d for frame type %d (max %d)" length
        frame_type max
  | Checksum_mismatch { expected; actual } ->
      Printf.sprintf "payload checksum mismatch (expected %08x, got %08x)"
        expected actual
  | Protocol_error detail -> "protocol error: " ^ detail

let () =
  Printexc.register_printer (function
    | Frame_error e -> Some ("Frame_error: " ^ error_to_string e)
    | Closed -> Some "Frame.Closed"
    | _ -> None)

let header_size = 14

let max_payload = 1 lsl 28 (* 256 MiB *)

let v ?(flags = 0) ?(stream_id = 0) ftype payload =
  { ftype; flags; stream_id; payload }

(* Oversized payloads are rejected here, on the send side: past
   [max_payload] the receiver would tear the connection down with an
   unhelpful generic failure, and past 4 GiB the u32 length field would
   silently wrap and desynchronize the stream. *)
let encode f =
  if String.length f.payload > max_payload then
    raise
      (Frame_error
         (Invalid_length
            {
              frame_type = type_code f.ftype;
              length = String.length f.payload;
              max = max_payload;
            }));
  let b = Bytes.create (header_size + String.length f.payload) in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length f.payload));
  Bytes.set_uint8 b 4 (type_code f.ftype);
  Bytes.set_uint8 b 5 (f.flags land 0xFF);
  Bytes.set_int32_le b 6 (Int32.of_int f.stream_id);
  Bytes.set_int32_le b 10
    (Int32.of_int (Octf_tensor.Codec.checksum f.payload));
  Bytes.blit_string f.payload 0 b header_size (String.length f.payload);
  Bytes.unsafe_to_string b

(* Parse a header; returns (payload_length, frame_type, flags,
   stream_id, expected_checksum) or a typed error. Length and type are
   validated here, before any payload allocation. *)
let decode_header h =
  if String.length h < header_size then
    Error (Protocol_error "truncated header")
  else
    let b = Bytes.unsafe_of_string h in
    let length = Int32.to_int (Bytes.get_int32_le b 0) in
    let tcode = Bytes.get_uint8 b 4 in
    let flags = Bytes.get_uint8 b 5 in
    let stream_id = Int32.to_int (Bytes.get_int32_le b 6) land 0xFFFFFFFF in
    let expected = Int32.to_int (Bytes.get_int32_le b 10) in
    (* the length is unsigned on the wire; a "negative" value here is a
       4-byte pattern above 2^31 — far beyond max_payload either way *)
    match type_of_code tcode with
    | None -> Error (Unknown_frame { frame_type = tcode; length })
    | Some ftype ->
        if length < 0 || length > max_payload then
          Error (Invalid_length { frame_type = tcode; length; max = max_payload })
        else Ok (ftype, flags, stream_id, length, expected)

(* Decode one complete frame from a string (for tests and golden
   vectors); the buffer must contain the whole frame. *)
let decode s =
  match decode_header s with
  | Error e -> Error e
  | Ok (ftype, flags, stream_id, length, expected) ->
      if String.length s < header_size + length then
        Error (Protocol_error "truncated frame")
      else
        let payload = String.sub s header_size length in
        let actual = Octf_tensor.Codec.checksum payload in
        if actual <> expected then
          Error (Checksum_mismatch { expected; actual })
        else Ok { ftype; flags; stream_id; payload }

(* Blocking socket I/O ------------------------------------------------ *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write_fd fd f =
  let s = encode f in
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

(* Read exactly [len] bytes. [at_boundary] distinguishes a clean close
   (EOF before the first header byte → [Closed]) from a truncated
   frame (EOF anywhere else → [Protocol_error]). [on_chunk] fires on
   every partial read — byte-granular liveness for heartbeat monitors,
   which would otherwise see nothing while a large frame trickles in. *)
let read_exact ?(on_chunk = fun _ -> ()) fd len ~at_boundary =
  let b = Bytes.create len in
  let rec go off =
    if off < len then begin
      let n = Unix.read fd b off (len - off) in
      if n = 0 then
        if at_boundary && off = 0 then raise Closed
        else raise (Frame_error (Protocol_error "truncated frame"))
      else begin
        on_chunk n;
        go (off + n)
      end
    end
  in
  go 0;
  b

let read_fd ?on_chunk fd =
  let header =
    Bytes.unsafe_to_string (read_exact ?on_chunk fd header_size ~at_boundary:true)
  in
  match decode_header header with
  | Error e -> raise (Frame_error e)
  | Ok (ftype, flags, stream_id, length, expected) ->
      let payload =
        Bytes.unsafe_to_string (read_exact ?on_chunk fd length ~at_boundary:false)
      in
      let actual = Octf_tensor.Codec.checksum payload in
      if actual <> expected then
        raise (Frame_error (Checksum_mismatch { expected; actual }));
      { ftype; flags; stream_id; payload }
