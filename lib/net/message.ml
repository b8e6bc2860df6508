(* Typed messages carried by frames.

   One message variant per frame type; [to_frame] / [of_frame] are the
   codec. Payload decoding errors surface as [Frame.Protocol_error]
   (via [Wire.Decode_error]) so the transport's single error path
   handles both framing and payload corruption. *)

open Octf_tensor

type remote_error = {
  node : string option;
  device : string option;
  kind : string;  (* Step_failure.cause_kind of the remote cause *)
  message : string;  (* Step_failure.cause_payload of it *)
}

type step_result =
  | Fetched of (Octf.Node.endpoint * Octf.Value.t) list
  | Failed of remote_error

type t =
  | Hello of { version : int; job : string; task : int }
  | Ping of { seq : int }
  | Pong of { seq : int }
  | Tensor of { key : string; value : Octf.Value.t }
  | Run_step of {
      step_id : int;
      timeout : float option;  (* seconds of budget left, not absolute:
                                  peers do not share a clock *)
      feeds : (Octf.Node.endpoint * Tensor.t) list;
      fetches : Octf.Node.endpoint list;
      targets : int list;
    }
  | Step_done of { step_id : int; result : step_result }
  | Cancel_step of { step_id : int; reason : string }
  | Error_msg of { kind : string; detail : string }
  | Goodbye

let version = 1

let frame_type = function
  | Hello _ -> Frame.Hello
  | Ping _ -> Frame.Ping
  | Pong _ -> Frame.Pong
  | Tensor _ -> Frame.Tensor
  | Run_step _ -> Frame.Run_step
  | Step_done _ -> Frame.Step_done
  | Cancel_step _ -> Frame.Cancel_step
  | Error_msg _ -> Frame.Error_frame
  | Goodbye -> Frame.Goodbye

let kind m = Frame.type_name (frame_type m)

(* For fault-injection matching: the payload's identifying string. *)
let key = function
  | Tensor { key; _ } -> key
  | m -> kind m

let stream_id = function
  | Ping { seq } | Pong { seq } -> seq
  | Tensor { key; _ } -> (
      (* stream id mirrors the step for step-scoped frames so socket
         level fault specs can trigger "at step N" *)
      match String.index_opt key ':' with
      | Some i -> (
          let rest = String.sub key (i + 1) (String.length key - i - 1) in
          match String.index_opt rest ';' with
          | Some j -> (
              match int_of_string_opt (String.sub rest 0 j) with
              | Some id -> id
              | None -> 0)
          | None -> 0)
      | None -> 0)
  | Run_step { step_id; _ } | Step_done { step_id; _ }
  | Cancel_step { step_id; _ } ->
      step_id
  | Hello _ | Error_msg _ | Goodbye -> 0

let put_remote_error b (e : remote_error) =
  Wire.put_option b Wire.put_string e.node;
  Wire.put_option b Wire.put_string e.device;
  Wire.put_string b e.kind;
  Wire.put_string b e.message

let get_remote_error r =
  let node = Wire.get_option r Wire.get_string in
  let device = Wire.get_option r Wire.get_string in
  let kind = Wire.get_string r in
  let message = Wire.get_string r in
  { node; device; kind; message }

let to_frame m =
  let b = Buffer.create 64 in
  (match m with
  | Hello { version; job; task } ->
      Wire.put_u32 b version;
      Wire.put_string b job;
      Wire.put_u32 b task
  | Ping _ | Pong _ | Goodbye -> ()
  | Tensor { key; value } ->
      Wire.put_string b key;
      Wire.put_value b value
  | Run_step { timeout; feeds; fetches; targets; _ } ->
      Wire.put_option b Wire.put_f64 timeout;
      Wire.put_list b
        (fun b (ep, t) ->
          Wire.put_endpoint b ep;
          Wire.put_tensor b t)
        feeds;
      Wire.put_list b Wire.put_endpoint fetches;
      Wire.put_list b Wire.put_u32 targets
  | Step_done { result; _ } -> (
      match result with
      | Fetched pairs ->
          Wire.put_u8 b 0;
          Wire.put_list b
            (fun b (ep, v) ->
              Wire.put_endpoint b ep;
              Wire.put_value b v)
            pairs
      | Failed e ->
          Wire.put_u8 b 1;
          put_remote_error b e)
  | Cancel_step { reason; _ } -> Wire.put_string b reason
  | Error_msg { kind; detail } ->
      Wire.put_string b kind;
      Wire.put_string b detail);
  Frame.v ~stream_id:(stream_id m) (frame_type m) (Buffer.contents b)

let of_frame (f : Frame.t) =
  let r = Wire.reader f.Frame.payload in
  try
    let m =
      match f.Frame.ftype with
      | Frame.Hello ->
          let version = Wire.get_u32 r in
          let job = Wire.get_string r in
          let task = Wire.get_u32 r in
          Hello { version; job; task }
      | Frame.Ping -> Ping { seq = f.Frame.stream_id }
      | Frame.Pong -> Pong { seq = f.Frame.stream_id }
      | Frame.Tensor ->
          let key = Wire.get_string r in
          let value = Wire.get_value r in
          Tensor { key; value }
      | Frame.Run_step ->
          let timeout = Wire.get_option r Wire.get_f64 in
          let feeds =
            Wire.get_list r (fun r ->
                let ep = Wire.get_endpoint r in
                let t = Wire.get_tensor r in
                (ep, t))
          in
          let fetches = Wire.get_list r Wire.get_endpoint in
          let targets = Wire.get_list r Wire.get_u32 in
          Run_step { step_id = f.Frame.stream_id; timeout; feeds; fetches; targets }
      | Frame.Step_done ->
          let result =
            match Wire.get_u8 r with
            | 0 ->
                Fetched
                  (Wire.get_list r (fun r ->
                       let ep = Wire.get_endpoint r in
                       let v = Wire.get_value r in
                       (ep, v)))
            | 1 -> Failed (get_remote_error r)
            | t -> Wire.fail "bad step result tag %d" t
          in
          Step_done { step_id = f.Frame.stream_id; result }
      | Frame.Cancel_step ->
          Cancel_step
            { step_id = f.Frame.stream_id; reason = Wire.get_string r }
      | Frame.Error_frame ->
          let kind = Wire.get_string r in
          let detail = Wire.get_string r in
          Error_msg { kind; detail }
      | Frame.Goodbye -> Goodbye
    in
    Wire.expect_end r;
    m
  with Wire.Decode_error d ->
    raise
      (Frame.Frame_error
         (Frame.Protocol_error
            (Printf.sprintf "bad %s payload: %s"
               (Frame.type_name f.Frame.ftype)
               d)))
