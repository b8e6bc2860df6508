(* The out-of-process runtime: frame codec, wire codec, backoff,
   rendezvous hygiene, SPMD placement determinism, and a real two-runtime
   TCP exchange (in one test process, over loopback sockets). *)

open Octf_tensor
open Octf
module B = Builder
module Frame = Octf_net.Frame
module Message = Octf_net.Message
module Wire = Octf_net.Wire
module Runtime = Octf_net.Runtime
module Transport = Octf_net.Transport

(* Like [Session.run_unit] where success is expected, but a failure
   reports its structured cause instead of an opaque [Run_error _]. *)
let must ?feeds session targets =
  try Session.run_unit ?feeds session targets
  with Session.Run_error f ->
    Alcotest.failf "step failed: %s" (Step_failure.to_string f)

(* Does a value for [key] reach [r] within 5 s? *)
let arrives r ~key =
  let got = Atomic.make false in
  Rendezvous.arm r ~key (fun o -> Atomic.set got (Result.is_ok o));
  Test_timer.eventually ~within:5.0 (fun () -> Atomic.get got)

(* ----------------------------- frames ------------------------------ *)

let frame_types =
  [
    Frame.Hello; Frame.Ping; Frame.Pong; Frame.Tensor; Frame.Run_step;
    Frame.Step_done; Frame.Cancel_step; Frame.Error_frame; Frame.Goodbye;
  ]

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame codec roundtrip" ~count:200
    QCheck.(
      triple (int_bound (List.length frame_types - 1)) (int_bound 0xFFFFF)
        (string_of_size Gen.small_nat))
    (fun (ti, stream_id, payload) ->
      let f = Frame.v ~stream_id (List.nth frame_types ti) payload in
      match Frame.decode (Frame.encode f) with
      | Ok g ->
          g.Frame.ftype = f.Frame.ftype
          && g.Frame.stream_id = f.Frame.stream_id
          && g.Frame.payload = f.Frame.payload
      | Error _ -> false)

(* Golden malformed inputs: each maps onto its typed error, never an
   escaped exception or a hang. *)
let test_malformed_frames () =
  let good = Frame.encode (Frame.v ~stream_id:7 Frame.Tensor "payload") in
  let set b i c =
    let by = Bytes.of_string b in
    Bytes.set by i c;
    Bytes.to_string by
  in
  (* Unknown type code. *)
  (match Frame.decode (set good 4 '\xFF') with
  | Error (Frame.Unknown_frame { frame_type = 0xFF; _ }) -> ()
  | r ->
      Alcotest.failf "unknown type: got %s"
        (match r with Ok _ -> "Ok" | Error e -> Frame.error_kind e));
  (* Length beyond max_payload (0x7FFFFFFF little-endian). *)
  let oversize =
    set (set (set (set good 0 '\xFF') 1 '\xFF') 2 '\xFF') 3 '\x7F'
  in
  (match Frame.decode oversize with
  | Error (Frame.Invalid_length _) -> ()
  | r ->
      Alcotest.failf "oversize: got %s"
        (match r with Ok _ -> "Ok" | Error e -> Frame.error_kind e));
  (* One flipped payload bit. *)
  let flipped =
    set good Frame.header_size
      (Char.chr (Char.code good.[Frame.header_size] lxor 0x10))
  in
  (match Frame.decode flipped with
  | Error (Frame.Checksum_mismatch _) -> ()
  | r ->
      Alcotest.failf "bit flip: got %s"
        (match r with Ok _ -> "Ok" | Error e -> Frame.error_kind e));
  (* Truncation: mid-header and mid-payload. *)
  List.iter
    (fun len ->
      match Frame.decode (String.sub good 0 len) with
      | Error (Frame.Protocol_error _) -> ()
      | r ->
          Alcotest.failf "truncated at %d: got %s" len
            (match r with Ok _ -> "Ok" | Error e -> Frame.error_kind e))
    [ 0; 5; Frame.header_size - 1; Frame.header_size + 2 ]

let test_encode_rejects_oversize_payload () =
  (* Send-side validation: an oversized payload must fail fast in the
     sender with a typed error, not be rejected by the receiver as a
     generic connection teardown (or wrap the u32 length field). *)
  let payload = String.make (Frame.max_payload + 1) 'x' in
  match Frame.encode (Frame.v Frame.Tensor payload) with
  | _ -> Alcotest.fail "oversize payload must not encode"
  | exception Frame.Frame_error (Frame.Invalid_length _) -> ()

let test_frame_checksum_positional () =
  (* The checksum must catch transposed bytes, not just changed ones. *)
  let f = Frame.v Frame.Tensor "ab" in
  let enc = Frame.encode f in
  let b = Bytes.of_string enc in
  Bytes.set b Frame.header_size 'b';
  Bytes.set b (Frame.header_size + 1) 'a';
  match Frame.decode (Bytes.to_string b) with
  | Error (Frame.Checksum_mismatch _) -> ()
  | _ -> Alcotest.fail "transposition not caught"

(* ------------------------------ wire -------------------------------- *)

let tensors_of_every_dtype () =
  [
    Tensor.of_float_array [| 2; 2 |] [| 1.5; -2.0; 0.0; 3.25 |];
    Tensor.of_float_array ~dtype:Dtype.F64 [| 3 |] [| 1e-9; 2.0; -5.5 |];
    Tensor.of_int_array ~dtype:Dtype.I32 [| 2 |] [| -7; 42 |];
    Tensor.of_int_array ~dtype:Dtype.I64 [| 1 |] [| max_int / 2 |];
    Tensor.of_bool_array [| 4 |] [| true; false; false; true |];
    Tensor.of_string_array [| 2 |] [| "hello"; "" |];
    Tensor.scalar_f 9.0;
  ]

let test_wire_tensor_roundtrip () =
  List.iter
    (fun t ->
      let b = Buffer.create 64 in
      Wire.put_tensor b t;
      let back = Wire.get_tensor (Wire.reader (Buffer.contents b)) in
      Alcotest.(check string)
        "dtype"
        (Dtype.to_string (Tensor.dtype t))
        (Dtype.to_string (Tensor.dtype back));
      Alcotest.(check (array int)) "shape" (Tensor.shape t) (Tensor.shape back);
      match Tensor.dtype t with
      | Dtype.String ->
          Alcotest.(check (array string))
            "strings"
            (Tensor.string_buffer t)
            (Tensor.string_buffer back)
      | _ ->
          Alcotest.(check bool) "payload" true
            (Tensor.approx_equal ~tol:0.0 t back))
    (tensors_of_every_dtype ())

let test_wire_truncation_is_decode_error () =
  let b = Buffer.create 64 in
  Wire.put_tensor b (Tensor.of_float_array [| 4 |] [| 1.; 2.; 3.; 4. |]);
  let full = Buffer.contents b in
  for len = 0 to String.length full - 1 do
    match Wire.get_tensor (Wire.reader (String.sub full 0 len)) with
    | _ -> Alcotest.failf "truncated at %d: expected Decode_error" len
    | exception Wire.Decode_error _ -> ()
    | exception e ->
        Alcotest.failf "truncated at %d: got %s" len (Printexc.to_string e)
  done;
  (* A String tensor of shape [2^24] that carries one string: its
     element count must be bounded by the bytes left before anything
     is allocated for it. *)
  let b = Buffer.create 64 in
  Wire.put_string b "string";
  Wire.put_u32 b 1;
  Wire.put_i64 b (1 lsl 24);
  Wire.put_u32 b (1 lsl 24);
  Wire.put_string b "x";
  let before = Gc.allocated_bytes () in
  (match Wire.get_tensor (Wire.reader (Buffer.contents b)) with
  | _ -> Alcotest.fail "hostile element count: expected Decode_error"
  | exception Wire.Decode_error _ -> ());
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  if mb >= 1.0 then
    Alcotest.failf "hostile element count allocated %.1f MB" mb

let roundtrip_message m =
  match Message.of_frame (Result.get_ok (Frame.decode (Frame.encode (Message.to_frame m)))) with
  | m' -> m'

let test_message_roundtrips () =
  (match roundtrip_message (Message.Hello { version = 1; job = "ps"; task = 3 }) with
  | Message.Hello { version = 1; job = "ps"; task = 3 } -> ()
  | _ -> Alcotest.fail "hello");
  (match roundtrip_message (Message.Ping { seq = 12 }) with
  | Message.Ping { seq = 12 } -> ()
  | _ -> Alcotest.fail "ping");
  (match
     roundtrip_message
       (Message.Tensor
          { key = "step:9;a;b;x:0"; value = Value.Tensor (Tensor.scalar_f 4.0) })
   with
  | Message.Tensor { key = "step:9;a;b;x:0"; value = Value.Tensor t } ->
      Alcotest.(check (float 0.)) "tensor payload" 4.0 (Tensor.flat_get_f t 0)
  | _ -> Alcotest.fail "tensor");
  (match
     roundtrip_message
       (Message.Run_step
          {
            step_id = 5;
            timeout = Some 1.5;
            feeds = [ ({ Node.node_id = 1; index = 0 }, Tensor.scalar_i 3) ];
            fetches = [ { Node.node_id = 2; index = 1 } ];
            targets = [ 4; 9 ];
          })
   with
  | Message.Run_step
      { step_id = 5; timeout = Some t; feeds = [ (ep, tv) ]; fetches = [ fp ];
        targets = [ 4; 9 ] } ->
      Alcotest.(check (float 1e-9)) "timeout" 1.5 t;
      Alcotest.(check int) "feed ep" 1 ep.Node.node_id;
      Alcotest.(check int) "feed val" 3 (Tensor.flat_get_i tv 0);
      Alcotest.(check int) "fetch index" 1 fp.Node.index
  | _ -> Alcotest.fail "run_step");
  (match
     roundtrip_message
       (Message.Step_done
          {
            step_id = 5;
            result =
              Message.Failed
                {
                  Message.node = Some "MatMul";
                  device = None;
                  kind = "network_error";
                  message = "boom";
                };
          })
   with
  | Message.Step_done
      { result = Message.Failed { node = Some "MatMul"; kind = "network_error"; _ }; _ }
    -> ()
  | _ -> Alcotest.fail "step_done failed");
  match roundtrip_message (Message.Cancel_step { step_id = 2; reason = "r" }) with
  | Message.Cancel_step { step_id = 2; reason = "r" } -> ()
  | _ -> Alcotest.fail "cancel_step"

let test_message_bad_payload_is_protocol_error () =
  (* A Tensor frame whose payload is garbage decodes to Protocol_error,
     never an escaped Decode_error or Invalid_argument. *)
  let f = Frame.v ~stream_id:3 Frame.Tensor "\x02\x00\x00\x00ab\x09" in
  match Message.of_frame f with
  | _ -> Alcotest.fail "expected Frame_error"
  | exception Frame.Frame_error (Frame.Protocol_error _) -> ()
  | exception e -> Alcotest.failf "got %s" (Printexc.to_string e)

(* ----------------------------- backoff ------------------------------ *)

let test_backoff_deterministic () =
  let p = Backoff.policy ~base:0.1 ~multiplier:2.0 ~cap:5.0 ~jitter:0.5 ~seed:7 () in
  let delays () =
    let t = Backoff.create p in
    List.init 8 (fun _ -> Option.get (Backoff.next t))
  in
  Alcotest.(check (list (float 0.))) "same seed, same timeline" (delays ())
    (delays ());
  let other =
    Backoff.create
      (Backoff.policy ~base:0.1 ~multiplier:2.0 ~cap:5.0 ~jitter:0.5 ~seed:8 ())
  in
  let d2 = List.init 8 (fun _ -> Option.get (Backoff.next other)) in
  Alcotest.(check bool) "different seed, different jitter" true (delays () <> d2)

let test_backoff_growth_cap_and_jitter_bounds () =
  let p = Backoff.policy ~base:0.01 ~multiplier:2.0 ~cap:0.5 ~jitter:0.25 () in
  for attempt = 0 to 12 do
    let d = Backoff.delay_for p ~attempt in
    let raw = min (0.01 *. (2.0 ** float_of_int attempt)) 0.5 in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in [0.75r, r]" attempt)
      true
      (d <= raw +. 1e-12 && d >= (0.75 *. raw) -. 1e-12)
  done;
  (* Far attempts saturate at the cap (modulo jitter). *)
  let d = Backoff.delay_for p ~attempt:40 in
  Alcotest.(check bool) "capped" true (d <= 0.5 && d >= 0.375)

let test_backoff_exhaustion_and_reset () =
  let t = Backoff.create (Backoff.policy ~base:0.0 ~max_attempts:2 ()) in
  Alcotest.(check bool) "1st" true (Backoff.next t <> None);
  Alcotest.(check bool) "2nd" true (Backoff.next t <> None);
  Alcotest.(check bool) "exhausted" true (Backoff.next t = None);
  Alcotest.(check bool) "wait exhausted" false (Backoff.wait t);
  Backoff.reset t;
  Alcotest.(check int) "attempts reset" 0 (Backoff.attempts t);
  Alcotest.(check bool) "usable again" true (Backoff.next t <> None)

(* ---------------------------- rendezvous ---------------------------- *)

let test_rendezvous_drop_step_scoping () =
  let r = Rendezvous.create () in
  let key step name =
    Rendezvous.step_key ~step_id:step ~send_device:"a" ~recv_device:"b"
      ~tensor_name:name
  in
  Rendezvous.send r ~key:(key 1 "x") (Value.Tensor (Tensor.scalar_f 1.0));
  Rendezvous.send r ~key:(key 1 "y") (Value.Tensor (Tensor.scalar_f 2.0));
  Rendezvous.send r ~key:(key 2 "x") (Value.Tensor (Tensor.scalar_f 3.0));
  Alcotest.(check int) "three pending" 3 (Rendezvous.pending_count r);
  Alcotest.(check int) "step 1 dropped" 2 (Rendezvous.drop_step r ~step_id:1);
  Alcotest.(check int) "one left" 1 (Rendezvous.pending_count r);
  (* Step 2's entry survives and is still receivable. *)
  let got = ref None in
  Rendezvous.arm r ~key:(key 2 "x") (fun o -> got := Some o);
  (match !got with
  | Some (Ok (Value.Tensor t)) ->
      Alcotest.(check (float 0.)) "survivor" 3.0 (Tensor.flat_get_f t 0)
  | _ -> Alcotest.fail "step 2 entry lost");
  Alcotest.(check int) "empty" 0 (Rendezvous.pending_count r);
  Alcotest.(check int) "idempotent" 0 (Rendezvous.drop_step r ~step_id:1)

let test_routed_rendezvous_abort_not_sticky () =
  (* The process-global routed rendezvous outlives steps: an abort (from
     a Send kernel whose connection died) must wake waiters but not
     poison later steps. *)
  let r = Rendezvous.create ~route:(fun ~key:_ _ -> false) () in
  Rendezvous.abort r ~reason:"conn lost";
  Rendezvous.send r ~key:"step:1;a;b;x:0" (Value.Tensor (Tensor.scalar_f 1.0));
  let got = ref None in
  Rendezvous.arm r ~key:"step:1;a;b;x:0" (fun o -> got := Some o);
  (match !got with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "routed rendezvous unusable after abort");
  (* A private rendezvous stays sticky — that is its per-step teardown. *)
  let priv = Rendezvous.create () in
  Rendezvous.abort priv ~reason:"step failed";
  Rendezvous.arm priv ~key:"k" (fun o -> got := Some o);
  match !got with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "private abort must stick"

(* ----------------------- placement determinism ---------------------- *)

(* Two processes of an SPMD cluster compile different step subsets of
   the same graph. Placement must come out identical anyway — this was
   a live deadlock: a chief that had also compiled an input-pipeline
   step placed the gradient ops differently from the serving ps, and
   the partitions' Send/Recv pairs no longer matched. *)
let build_two_device_graph () =
  let b = B.create () in
  let store = Octf_nn.Var_store.create b in
  let w =
    Octf_nn.Var_store.get store ~device:"/job:ps/task:0"
      ~init:Octf_nn.Init.zeros ~name:"w" [| 3; 1 |]
  in
  let x_in = B.placeholder b ~name:"x_in" ~shape:[| 4; 3 |] Dtype.F32 in
  let y_in = B.placeholder b ~name:"y_in" ~shape:[| 4; 1 |] Dtype.F32 in
  let enqueue, x, y =
    B.with_device b "/job:worker/task:0" (fun () ->
        let q = B.fifo_queue b ~name:"q" ~capacity:2 ~num_components:2 () in
        let enqueue = B.enqueue b q [ x_in; y_in ] in
        match B.dequeue b q ~num_components:2 with
        | [ x; y ] -> (enqueue, x, y)
        | _ -> assert false)
  in
  let loss =
    B.with_device b "/job:worker/task:0" (fun () ->
        Octf_nn.Losses.mse b
          ~predictions:(B.matmul b x w.Octf_nn.Var_store.read)
          ~targets:y)
  in
  let train = Octf_train.Optimizer.minimize store ~lr:0.1 ~loss () in
  let init = Octf_nn.Var_store.init_op store in
  (b, x_in, y_in, enqueue, loss, train, init)

let assignments b =
  List.init
    (Graph.node_count (B.graph b))
    (fun id ->
      match (Graph.get (B.graph b) id).Node.assigned_device with
      | Some d -> Device.to_string d
      | None -> "<unplaced>")

let test_spmd_placement_agrees_across_compile_orders () =
  let jobs = [ ("ps", 1, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ] in
  (* Chief: compiles enqueue (feeds) first, then the train step. *)
  let b1, x1, y1, enq1, loss1, train1, init1 = build_two_device_graph () in
  let s1 = Cluster.session (Cluster.create ~jobs) (B.graph b1) in
  must s1 [ init1 ];
  let xs = Tensor.zeros Dtype.F32 [| 4; 3 |] in
  let ys = Tensor.zeros Dtype.F32 [| 4; 1 |] in
  must ~feeds:[ (x1, xs); (y1, ys) ] s1 [ enq1 ];
  must s1 [ loss1; train1 ];
  (* Server: only ever compiles the train step. *)
  let b2, _, _, _, loss2, train2, init2 = build_two_device_graph () in
  let s2 = Cluster.session (Cluster.create ~jobs) (B.graph b2) in
  must s2 [ init2 ];
  (* The queue is empty in this process, so execution cannot finish —
     but placement happens at compile time, before the dequeue blocks.
     Run under a short deadline and ignore the structured cancellation. *)
  (match Session.run_unit ~deadline:0.3 s2 [ loss2; train2 ] with
  | () -> ()
  | exception Session.Run_error _ -> ());
  Alcotest.(check (list string))
    "identical device assignment regardless of compile history"
    (assignments b1) (assignments b2)

(* --------------------- two runtimes over loopback -------------------- *)

(* A listening socket on a loopback port the kernel picks, and that
   port. *)
let listen_loopback () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 1;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | _ -> assert false

(* A loopback port that was free a moment ago: bound, then closed. *)
let free_port () =
  let fd, port = listen_loopback () in
  Unix.close fd;
  port

(* The ps/worker address book over two fresh loopback ports. *)
let loopback_cluster () =
  let ps_port = free_port () and worker_port = free_port () in
  [ (("ps", 0), { Runtime.host = "127.0.0.1"; port = ps_port });
    (("worker", 0), { Runtime.host = "127.0.0.1"; port = worker_port }) ]

(* [start cluster] on a fresh address book. A runtime binds its port
   some time after [free_port] closed it, and another socket can take
   the port in between; on EADDRINUSE, [start] runs again on fresh
   ports. [start] shuts down what it started before it re-raises. *)
let rec on_fresh_ports ?(attempts = 5) start =
  match start (loopback_cluster ()) with
  | started -> started
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when attempts > 1 ->
      on_fresh_ports ~attempts:(attempts - 1) start

(* A ps and a worker, each started by [start ~job ~cluster] on one fresh
   address book, with that address book; [rt] names a party's runtime. *)
let start_ps_worker ~rt start =
  on_fresh_ports (fun cluster ->
      let ps = start ~job:"ps" ~cluster in
      match start ~job:"worker" ~cluster with
      | worker -> (cluster, ps, worker)
      | exception e ->
          Runtime.shutdown (rt ps);
          raise e)

let ps_worker_jobs =
  [ ("ps", 1, [ Device.CPU ]); ("worker", 1, [ Device.CPU ]) ]

(* Fast heartbeats by default, so a killed peer is noticed within
   0.15 s; [~patient] tolerates a loaded host stalling a process. *)
let loopback_runtime ?(patient = false) ~job ~cluster () =
  let heartbeat_interval, rpc_timeout =
    if patient then (1.0, 30.0) else (0.05, 5.0)
  in
  Runtime.create
    (Runtime.config ~job ~task:0 ~cluster ~heartbeat_interval
       ~heartbeat_misses:3 ~connect_timeout:0.5 ~rpc_timeout
       ~backoff:(Backoff.policy ~base:0.02 ~multiplier:2.0 ~cap:0.1 ())
       ())

(* A port another socket holds fails [Runtime.create] with EADDRINUSE,
   and [on_fresh_ports] then starts again on fresh ports. *)
let test_taken_port_retries () =
  let listener, taken = listen_loopback () in
  Fun.protect ~finally:(fun () -> Unix.close listener) @@ fun () ->
  let attempts = ref 0 in
  let rt =
    on_fresh_ports (fun cluster ->
        incr attempts;
        let cluster =
          if !attempts = 1 then
            (("ps", 0), { Runtime.host = "127.0.0.1"; port = taken })
            :: List.remove_assoc ("ps", 0) cluster
          else cluster
        in
        loopback_runtime ~job:"ps" ~cluster ())
  in
  Runtime.shutdown rt;
  Alcotest.(check int) "one retry" 2 !attempts

let test_session_drain_scrubs_rendezvous () =
  (* A leaked entry on the runtime's shared rendezvous is scrubbed when
     the session drains the steps that produced it. The step never
     routes off-process, so no peer listens. *)
  let rt =
    on_fresh_ports (fun cluster -> loopback_runtime ~job:"worker" ~cluster ())
  in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  let r = Runtime.rendezvous rt in
  let b = B.create () in
  let x = B.const_f b 41.0 in
  let y = B.add b x (B.const_f b 1.0) in
  let session =
    Cluster.session
      (Cluster.create ~jobs:[ ("worker", 1, [ Device.CPU ]) ])
      ~config:(Session.Config.v ~remote:(Runtime.runner rt) ())
      (B.graph b)
  in
  ignore (Session.run session [ y ]);
  (* Simulate a tensor a failed step left behind under a step id the
     session has already issued. *)
  Rendezvous.send r
    ~key:
      (Rendezvous.step_key ~step_id:1 ~send_device:"a" ~recv_device:"b"
         ~tensor_name:"leak:0")
    (Value.Tensor (Tensor.scalar_f 0.0));
  Alcotest.(check int) "leaked entry pending" 1 (Rendezvous.pending_count r);
  Session.drain session;
  Alcotest.(check int) "drain scrubbed it" 0 (Rendezvous.pending_count r)

(* A session over the ps/worker cluster that executes through [rt]. *)
let remote_session ?(config = Session.Config.default) rt graph =
  let session =
    Cluster.session (Cluster.create ~jobs:ps_worker_jobs)
      ~config:{ config with Session.Config.remote = Some (Runtime.runner rt) }
      graph
  in
  Runtime.serve rt ~session;
  session

(* Two runtimes over loopback in this one process, a ps and a worker,
   each serving a session over its own copy of the graph [build]
   returns. [f] runs as the chief: the worker's session and its copy of
   [build]'s result. No peer dies here, so the runtimes are patient. *)
let with_loopback_pair ?config build f =
  let party ~job ~cluster =
    let rt = loopback_runtime ~patient:true ~job ~cluster () in
    let b, x = build () in
    (rt, remote_session ?config rt (B.graph b), x)
  in
  let _, (ps_rt, _, _), (chief_rt, session, x) =
    start_ps_worker ~rt:(fun (rt, _, _) -> rt) party
  in
  Fun.protect
    ~finally:(fun () ->
      Runtime.shutdown chief_rt;
      Runtime.shutdown ps_rt)
    (fun () -> f session x)

(* One "process" of the in-test cluster: its own identically-built
   graph, session, and runtime — sharing nothing with its peer but the
   TCP sockets between them. *)
type party = {
  rt : Runtime.t;
  session : Session.t;
  loss : B.output;
  train : B.output;
  init : B.output;
  x_in : B.output;
  y_in : B.output;
  enqueue : B.output;
  w_read : B.output;
}

let spawn_party ~job ~cluster =
  let rt = loopback_runtime ~job ~cluster () in
  let b = B.create () in
  let store = Octf_nn.Var_store.create b in
  let w =
    Octf_nn.Var_store.get store ~device:"/job:ps/task:0"
      ~init:Octf_nn.Init.zeros ~name:"w" [| 2; 1 |]
  in
  let x_in = B.placeholder b ~name:"x_in" ~shape:[| 4; 2 |] Dtype.F32 in
  let y_in = B.placeholder b ~name:"y_in" ~shape:[| 4; 1 |] Dtype.F32 in
  let enqueue, x, y =
    B.with_device b "/job:worker/task:0" (fun () ->
        let q = B.fifo_queue b ~name:"q" ~capacity:4 ~num_components:2 () in
        let enqueue = B.enqueue b q [ x_in; y_in ] in
        match B.dequeue b q ~num_components:2 with
        | [ x; y ] -> (enqueue, x, y)
        | _ -> assert false)
  in
  let loss =
    B.with_device b "/job:worker/task:0" (fun () ->
        Octf_nn.Losses.mse b
          ~predictions:(B.matmul b x w.Octf_nn.Var_store.read)
          ~targets:y)
  in
  let train = Octf_train.Optimizer.minimize store ~lr:0.2 ~loss () in
  let init = Octf_nn.Var_store.init_op store in
  let session = remote_session rt (B.graph b) in
  {
    rt; session; loss; train; init; x_in; y_in; enqueue;
    w_read = w.Octf_nn.Var_store.read;
  }

let batch () =
  ( Tensor.of_float_array [| 4; 2 |] [| 1.; 0.; 0.; 1.; 1.; 1.; 2.; 1. |],
    Tensor.of_float_array [| 4; 1 |] [| 1.; -1.; 0.; 1. |] )

let test_two_runtime_training_and_recovery () =
  let cluster, ps, chief = start_ps_worker ~rt:(fun p -> p.rt) spawn_party in
  let ps = ref ps in
  Fun.protect ~finally:(fun () ->
      Runtime.shutdown chief.rt;
      Runtime.shutdown !ps.rt)
  @@ fun () ->
  let step () =
    let xs, ys = batch () in
    Session.run_unit
      ~feeds:[ (chief.x_in, xs); (chief.y_in, ys) ]
      chief.session [ chief.enqueue ];
    Session.run_unit chief.session [ chief.loss; chief.train ]
  in
  Session.run_unit chief.session [ chief.init ];
  for _ = 1 to 3 do step () done;
  let w1 =
    Tensor.to_float_array
      (List.hd (Session.run chief.session [ chief.w_read ]))
  in
  Alcotest.(check bool) "training moved w off zero" true
    (Array.exists (fun v -> Float.abs v > 1e-6) w1);
  (* Kill the ps runtime: the step must fail with a structured network
     cause — not hang, not escape as a raw exception. *)
  Runtime.shutdown !ps.rt;
  (match step () with
  | () -> Alcotest.fail "step against dead ps should fail"
  | exception Session.Run_error f -> (
      match f.Step_failure.cause with
      | Step_failure.Network_error _ | Step_failure.Cancelled _
      | Step_failure.Rendezvous_aborted _ ->
          ()
      | c ->
          Alcotest.failf "expected a network failure, got %s"
            (Step_failure.cause_kind c)));
  (* Session.drain retires the failed step's rendezvous leftovers on the
     shared routed rendezvous (the drop_step integration). *)
  Session.drain chief.session;
  Alcotest.(check int) "no leaked rendezvous entries after drain" 0
    (Rendezvous.pending_count (Runtime.rendezvous chief.rt));
  (* Restart the ps "process" on the same address; the chief's next
     dial (after backoff) must reconnect and training must resume. *)
  ps := spawn_party ~job:"ps" ~cluster;
  (* Early attempts fail fast while the reconnect backoff is pacing the
     dials; keep retrying until the chief re-establishes the link. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec retry_until f =
    match f () with
    | () -> ()
    | exception Session.Run_error fl ->
        if Unix.gettimeofday () < deadline then begin
          Thread.delay 0.05;
          retry_until f
        end
        else Alcotest.failf "did not recover: %s" (Step_failure.to_string fl)
  in
  retry_until (fun () -> Session.run_unit chief.session [ chief.init ]);
  for _ = 1 to 3 do retry_until step done;
  let w2 =
    Tensor.to_float_array
      (List.hd (Session.run chief.session [ chief.w_read ]))
  in
  Alcotest.(check bool) "training resumed after ps restart" true
    (Array.exists (fun v -> Float.abs v > 1e-6) w2)

(* A failure on the ps task must reach the chief with the same node,
   device and text whether the ps partition ran on a thread of this
   process or behind a Run_step RPC, whose failure crosses the wire as
   a kind string and payload rebuilt by [Step_failure.cause_of_wire].
   [y] fails with a kernel fault injected on the ps; [z] runs out its
   deadline on the ps, parked on a Recv from a worker kernel that
   straggles past it. *)
let build_ps_failures () =
  let b = B.create () in
  (* fed, not constant, so constant folding cannot run the matmuls *)
  let x = B.placeholder b ~name:"x" ~shape:[| 2; 2 |] Dtype.F32 in
  let on_ps f = B.with_device b "/job:ps/task:0" f in
  let on_worker f = B.with_device b "/job:worker/task:0" f in
  let m = on_ps (fun () -> B.matmul b ~name:"ps_matmul" x x) in
  let y = on_worker (fun () -> B.add b m (B.const_f b 1.0)) in
  let slow = on_worker (fun () -> B.matmul b ~name:"worker_slow" x x) in
  let z = on_ps (fun () -> B.add b slow (B.const_f b 1.0)) in
  (b, (x, y, z))

let ones_2x2 = Tensor.ones Dtype.F32 [| 2; 2 |]

(* The fault step, then the deadline step, as steps 1 and 2. *)
let ps_failures session (x, y, z) =
  let fail ?deadline spec fetch =
    Fault_injector.install [ spec ];
    Fun.protect ~finally:Fault_injector.reset @@ fun () ->
    match Session.run ?deadline ~feeds:[ (x, ones_2x2) ] session [ fetch ] with
    | _ -> Alcotest.fail "the injected ps failure must fail the step"
    | exception Session.Run_error f -> f
  in
  let fault =
    fail (Fault_injector.Fail_kernel { pattern = "ps_matmul"; step = 0 }) y
  in
  let deadline =
    fail ~deadline:0.1
      (Fault_injector.Slow_kernel
         { pattern = "worker_slow"; step = 0; ms = 400.0 })
      z
  in
  (fault, deadline)

let test_remote_failure_attribution () =
  let triple (f : Step_failure.t) =
    ( Option.value f.node ~default:"<none>",
      Option.value f.device ~default:"<none>",
      Step_failure.cause_kind f.cause )
  in
  let in_fault, in_deadline =
    let b, fetches = build_ps_failures () in
    ps_failures
      (Cluster.session (Cluster.create ~jobs:ps_worker_jobs) (B.graph b))
      fetches
  in
  Alcotest.(check (triple string string string))
    "in-process: node, device, cause kind"
    ("ps_matmul", "/job:ps/task:0/device:CPU:0", "fault_injected")
    (triple in_fault);
  (* every cause's wire form rebuilds it, budget included *)
  List.iter
    (fun (f : Step_failure.t) ->
      Alcotest.(check string) "wire form rebuilds the cause"
        (Step_failure.cause_message f.cause)
        (Step_failure.cause_message
           (Step_failure.cause_of_wire
              ~kind:(Step_failure.cause_kind f.cause)
              ~payload:(Step_failure.cause_payload f.cause))))
    [ in_fault; in_deadline ];
  with_loopback_pair build_ps_failures (fun session ((x, y, _) as fetches) ->
      let fault, deadline = ps_failures session fetches in
      Alcotest.(check string) "over loopback: the fault reads the same"
        (Step_failure.to_string in_fault)
        (Step_failure.to_string fault);
      Alcotest.(check string) "over loopback: the deadline reads the same"
        (Step_failure.to_string in_deadline)
        (Step_failure.to_string deadline);
      (* the one-shot fault is spent: the same step now succeeds *)
      match Session.run ~feeds:[ (x, ones_2x2) ] session [ y ] with
      | [ t ] ->
          Alcotest.(check (float 0.0)) "retry succeeds" 3.0
            (Tensor.flat_get_f t 0)
      | _ -> assert false)

(* The chief runs its own part on the calling thread and the RPC on
   one more; the ps serves the step on one thread. Deadlines start no
   thread: the process's one timer thread serves them all. *)
let test_loopback_step_threads () =
  with_loopback_pair build_ps_failures (fun session (x, y, _) ->
      let step () =
        ignore (Session.run ~deadline:10.0 ~feeds:[ (x, ones_2x2) ] session [ y ])
      in
      (* dials the ps and starts the timer *)
      step ();
      let (), started = Test_timer.threads_started step in
      Alcotest.(check bool)
        (Printf.sprintf "%d threads started, at most 2" started)
        true (started <= 2))

let test_heartbeat_detects_wedged_peer () =
  (* A fake ps that completes the handshake, then goes silent: never
     answers pings. The runtime must declare it dead and fail the
     pending RPC instead of hanging. *)
  let listener, port = listen_loopback () in
  let wedged = ref None in
  let accepter =
    Thread.create
      (fun () ->
        match Unix.accept listener with
        | client, _ ->
            (* Read the chief's Hello, answer with ours, then wedge. *)
            let (_ : Frame.t) = Frame.read_fd client in
            Frame.write_fd client
              (Message.to_frame
                 (Message.Hello
                    { version = Message.version; job = "ps"; task = 0 }));
            wedged := Some client
        | exception Unix.Unix_error _ -> ())
      ()
  in
  let cluster =
    [ (("ps", 0), { Runtime.host = "127.0.0.1"; port }) ]
  in
  let rt =
    Runtime.create
      (Runtime.config ~job:"worker" ~task:0 ~cluster ~heartbeat_interval:0.05
         ~heartbeat_misses:2 ~connect_timeout:1.0 ~rpc_timeout:30.0
         ~backoff:(Backoff.policy ~base:0.02 ())
         ())
  in
  Fun.protect ~finally:(fun () ->
      Runtime.shutdown rt;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (match !wedged with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      Thread.join accepter)
  @@ fun () ->
  let runner = Runtime.runner rt in
  let started = Unix.gettimeofday () in
  match
    runner.Remote.run_partitions ~job:"ps" ~task:0 ~step_id:1 ~feeds:[]
      ~fetches:[] ~targets:[] ~deadline:None ~cancel:None
  with
  | Ok _ -> Alcotest.fail "rpc to a wedged peer cannot succeed"
  | Error f -> (
      let took = Unix.gettimeofday () -. started in
      Alcotest.(check bool)
        "failed via heartbeat, far sooner than the 30 s rpc timeout" true
        (took < 10.0);
      match f.Step_failure.cause with
      | Step_failure.Network_error _ -> ()
      | c ->
          Alcotest.failf "expected Network_error, got %s"
            (Step_failure.cause_kind c))

let test_write_to_dead_peer_is_structured () =
  (* Runtime.create ignores SIGPIPE process-wide, so a write racing a
     peer's death raises EPIPE and surfaces as a structured
     Network_error — with the default disposition it would kill the
     whole test process right here. *)
  let rt =
    Runtime.create (Runtime.config ~job:"worker" ~task:0 ~cluster:[] ())
  in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  let conn = Transport.create a ~peer_job:"ps" ~peer_task:0 in
  Fun.protect ~finally:(fun () -> Transport.close conn) @@ fun () ->
  match
    for _ = 1 to 16 do
      Transport.send conn (Message.Ping { seq = 1 })
    done
  with
  | () -> Alcotest.fail "writes to a closed peer must fail"
  | exception Step_failure.Error f -> (
      match f.Step_failure.cause with
      | Step_failure.Network_error _ -> ()
      | c ->
          Alcotest.failf "expected Network_error, got %s"
            (Step_failure.cause_kind c))
  | exception e ->
      Alcotest.failf "expected a structured failure, got %s"
        (Printexc.to_string e)

let test_chief_restart_reuses_low_step_ids () =
  (* A restarted chief's session counter starts over at step 1. The
     surviving ps retired that id on behalf of the dead chief; the new
     chief's connection must purge those retirements, or its tensors
     are dropped as "late" and its early steps hang to the rpc
     timeout. *)
  let mk_chief cluster =
    Runtime.create
      (Runtime.config ~job:"worker" ~task:0 ~cluster ~heartbeat_interval:0.05
         ~heartbeat_misses:3 ~connect_timeout:1.0 ~rpc_timeout:5.0
         ~backoff:(Backoff.policy ~base:0.02 ())
         ())
  in
  let cluster, ps, chief1 =
    on_fresh_ports (fun cluster ->
        let ps = spawn_party ~job:"ps" ~cluster in
        match mk_chief cluster with
        | chief1 -> (cluster, ps, chief1)
        | exception e ->
            Runtime.shutdown ps.rt;
            raise e)
  in
  let chief2 = ref None in
  Fun.protect ~finally:(fun () ->
      Runtime.shutdown chief1;
      (match !chief2 with Some rt -> Runtime.shutdown rt | None -> ());
      Runtime.shutdown ps.rt)
  @@ fun () ->
  (* Chief #1 runs step 1 on the ps, which retires the id afterwards. *)
  (match
     (Runtime.runner chief1).Remote.run_partitions ~job:"ps" ~task:0
       ~step_id:1 ~feeds:[] ~fetches:[] ~targets:[] ~deadline:None
       ~cancel:None
   with
  | Ok _ -> ()
  | Error f ->
      Alcotest.failf "chief #1 step failed: %s" (Step_failure.to_string f));
  Runtime.shutdown chief1;
  (* Chief #2 is the restarted chief process: same identity, fresh step
     counter. Its tensor for step 1 must reach the ps's rendezvous, not
     be dropped against the dead chief's retirement of the same id. *)
  let rt2 = mk_chief cluster in
  chief2 := Some rt2;
  let key =
    Rendezvous.step_key ~step_id:1
      ~send_device:"/job:worker/task:0/device:CPU:0"
      ~recv_device:"/job:ps/task:0/device:CPU:0" ~tensor_name:"probe:0"
  in
  let deadline = Unix.gettimeofday () +. 8.0 in
  let rec attempt () =
    match
      Rendezvous.send (Runtime.rendezvous rt2) ~key
        (Value.Tensor (Tensor.scalar_f 7.0))
    with
    | () -> ()
    | exception Step_failure.Error _ when Unix.gettimeofday () < deadline ->
        (* reconnect pacing: early dials may fail fast *)
        Thread.delay 0.05;
        attempt ()
  in
  attempt ();
  if not (arrives (Runtime.rendezvous ps.rt) ~key) then
    Alcotest.fail "restarted chief's step-1 tensor was dropped as late"

let test_slow_frame_counts_as_liveness () =
  (* A peer pushing one large frame cannot interleave pongs (its write
     mutex is held for the duration), and no complete message arrives
     at the receiver until the frame ends. Byte arrival alone must keep
     the connection alive well past the heartbeat miss budget. *)
  let listener, port = listen_loopback () in
  let client_fd = ref None in
  let dribbler =
    Thread.create
      (fun () ->
        match Unix.accept listener with
        | exception Unix.Unix_error _ -> ()
        | client, _ ->
            client_fd := Some client;
            (* Handshake, then drain the chief's frames (pings,
               run_step) on the side so its writes never block. *)
            let (_ : Frame.t) = Frame.read_fd client in
            Frame.write_fd client
              (Message.to_frame
                 (Message.Hello
                    { version = Message.version; job = "ps"; task = 0 }));
            ignore
              (Thread.create
                 (fun () ->
                   try
                     while true do
                       ignore (Frame.read_fd client)
                     done
                   with _ -> ())
                 ());
            (* Dribble one tensor frame over ~0.8 s — more than five
               times the miss budget — never answering a single ping. *)
            let bytes =
              Frame.encode
                (Message.to_frame
                   (Message.Tensor
                      {
                        key = "step:1;a;b;slow:0";
                        value =
                          Value.Tensor
                            (Tensor.of_float_array [| 256 |]
                               (Array.make 256 1.0));
                      }))
            in
            let n = String.length bytes in
            let chunk = max 1 ((n + 15) / 16) in
            let off = ref 0 in
            (try
               while !off < n do
                 let len = min chunk (n - !off) in
                 ignore (Unix.write_substring client bytes !off len);
                 off := !off + len;
                 Thread.delay 0.05
               done
             with Unix.Unix_error _ -> ()))
      ()
  in
  let cluster = [ (("ps", 0), { Runtime.host = "127.0.0.1"; port }) ] in
  let rt =
    Runtime.create
      (Runtime.config ~job:"worker" ~task:0 ~cluster ~heartbeat_interval:0.05
         ~heartbeat_misses:3 ~connect_timeout:1.0 ~rpc_timeout:30.0
         ~backoff:(Backoff.policy ~base:0.02 ())
         ())
  in
  let runner = Runtime.runner rt in
  (* Dial the slow ps; the rpc itself never completes and is failed by
     the shutdown below. *)
  let rpc =
    Thread.create
      (fun () ->
        ignore
          (runner.Remote.run_partitions ~job:"ps" ~task:0 ~step_id:1 ~feeds:[]
             ~fetches:[] ~targets:[] ~deadline:None ~cancel:None))
      ()
  in
  Fun.protect ~finally:(fun () ->
      Runtime.shutdown rt;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (match !client_fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      Thread.join dribbler;
      Thread.join rpc)
  @@ fun () ->
  if not (arrives (Runtime.rendezvous rt) ~key:"step:1;a;b;slow:0") then
    Alcotest.fail
      "slow frame never arrived: heartbeat cut the connection mid-frame"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    Alcotest.test_case "malformed frames" `Quick test_malformed_frames;
    Alcotest.test_case "encode rejects oversize payload" `Quick
      test_encode_rejects_oversize_payload;
    Alcotest.test_case "checksum is positional" `Quick
      test_frame_checksum_positional;
    Alcotest.test_case "wire tensor roundtrip" `Quick
      test_wire_tensor_roundtrip;
    Alcotest.test_case "wire truncation" `Quick
      test_wire_truncation_is_decode_error;
    Alcotest.test_case "message roundtrips" `Quick test_message_roundtrips;
    Alcotest.test_case "bad payload" `Quick
      test_message_bad_payload_is_protocol_error;
    Alcotest.test_case "backoff deterministic" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "backoff growth, cap, jitter" `Quick
      test_backoff_growth_cap_and_jitter_bounds;
    Alcotest.test_case "backoff exhaustion and reset" `Quick
      test_backoff_exhaustion_and_reset;
    Alcotest.test_case "rendezvous drop_step scoping" `Quick
      test_rendezvous_drop_step_scoping;
    Alcotest.test_case "session drain scrubs shared rendezvous" `Quick
      test_session_drain_scrubs_rendezvous;
    Alcotest.test_case "routed rendezvous abort not sticky" `Quick
      test_routed_rendezvous_abort_not_sticky;
    Alcotest.test_case "SPMD placement determinism" `Quick
      test_spmd_placement_agrees_across_compile_orders;
    Alcotest.test_case "two-runtime train, kill, reconnect" `Quick
      test_two_runtime_training_and_recovery;
    Alcotest.test_case "remote failure names node, device, cause" `Quick
      test_remote_failure_attribution;
    Alcotest.test_case "a loopback step starts at most 2 threads" `Quick
      test_loopback_step_threads;
    Alcotest.test_case "heartbeat detects wedged peer" `Quick
      test_heartbeat_detects_wedged_peer;
    Alcotest.test_case "dead-peer write is structured" `Quick
      test_write_to_dead_peer_is_structured;
    Alcotest.test_case "chief restart reuses low step ids" `Quick
      test_chief_restart_reuses_low_step_ids;
    Alcotest.test_case "slow frame counts as liveness" `Quick
      test_slow_frame_counts_as_liveness;
    Alcotest.test_case "taken port retries on fresh ports" `Quick
      test_taken_port_retries;
  ]
