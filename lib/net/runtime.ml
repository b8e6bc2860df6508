(* The per-process network runtime: peers, heartbeats, reconnect
   backoff, RPC dispatch, and the serve loop.

   One [t] lives in each worker process. It owns

   - a listener accepting connections from peers (every task listens on
     its cluster address);
   - a peers table mapping (job, task) to at most one live connection,
     dialed on demand with jittered exponential backoff between
     attempts — while a peer is down, sends fail {e fast} with a
     structured [Network_error] rather than blocking on connect;
   - a heartbeat thread pinging dialed connections; after
     [heartbeat_misses] unanswered pings the connection is declared
     dead and closed, which fails every RPC and rendezvous route
     through it;
   - the process-global routed rendezvous: [Rendezvous.send] on it
     forwards a tensor to the task owning the key's recv device;
   - the Run_step serve path: incoming steps execute against the
     session registered with {!serve} on their own threads, under a
     cancel token honouring the chief's deadline and Cancel_step
     frames.

   Locking: [t.mutex] guards the tables; it is a leaf with respect to
   network I/O (never held across connect/read/write) and
   [Cancel.cancel] is only ever called after releasing it (cancel
   wakers may re-lock it). *)

module Backoff = Octf.Backoff
module Cancel = Octf.Cancel
module Device = Octf.Device
module Env = Octf_tensor.Env
module Metrics = Octf.Metrics
module Rendezvous = Octf.Rendezvous
module Step_failure = Octf.Step_failure

let m_connections =
  Metrics.Gauge.v ~help:"Live peer connections" "octf_net_connections"

let m_reconnects =
  Metrics.Counter.v ~help:"Successful re-dials after a connection loss"
    "octf_net_reconnects_total"

let m_dial_failures =
  Metrics.Counter.v ~help:"Failed dial attempts" "octf_net_dial_failures_total"

let m_heartbeat_misses =
  Metrics.Counter.v ~help:"Heartbeat intervals with no pong"
    "octf_net_heartbeat_misses_total"

let m_peer_deaths =
  Metrics.Counter.v ~help:"Peers declared dead by heartbeat miss threshold"
    "octf_net_peer_deaths_total"

let m_rpcs =
  Metrics.Counter.v ~help:"Run_step RPCs issued" "octf_net_rpcs_total"

let m_rpc_failures =
  Metrics.Counter.v ~help:"Run_step RPCs failed (transport or remote)"
    "octf_net_rpc_failures_total"

let m_steps_served =
  Metrics.Counter.v ~help:"Run_step RPCs served for remote chiefs"
    "octf_net_steps_served_total"

let m_late_tensors =
  Metrics.Counter.v ~help:"Tensor frames dropped for retired steps"
    "octf_net_late_tensors_total"

(* OCTF_NET_TRACE=1 prints per-frame runtime decisions to stderr —
   the first thing to reach for when a distributed run misbehaves. *)
let trace_env = Env.bool "OCTF_NET_TRACE"
let trace_enabled = Option.value (Env.get trace_env) ~default:false

let tracef fmt =
  Printf.ksprintf
    (fun s ->
      if trace_enabled then
        Printf.eprintf "octf-net[%d]: %s\n%!" (Unix.getpid ()) s)
    fmt

type addr = { host : string; port : int }

type config = {
  job : string;
  task : int;
  cluster : ((string * int) * addr) list;
  heartbeat_interval : float;
  heartbeat_misses : int;
  connect_timeout : float;
  rpc_timeout : float;
  backoff : Backoff.policy;
}

let config ?(heartbeat_interval = 0.2) ?(heartbeat_misses = 3)
    ?(connect_timeout = 0.5) ?(rpc_timeout = 30.0) ?backoff ~job ~task ~cluster
    () =
  {
    job;
    task;
    cluster;
    heartbeat_interval;
    heartbeat_misses;
    connect_timeout;
    rpc_timeout;
    backoff =
      (match backoff with
      | Some p -> p
      | None ->
          Backoff.policy ~base:0.05 ~multiplier:2.0 ~cap:2.0 ~jitter:0.25 ());
  }

(* "job[:task]=host:port,..." — task defaults to 0, so the common
   two-process case reads "--cluster ps=127.0.0.1:7000,worker=..." *)
let parse_cluster s =
  let parse_entry e =
    match String.index_opt e '=' with
    | None -> Error (Printf.sprintf "bad cluster entry %S (want job=host:port)" e)
    | Some i -> (
        let name = String.sub e 0 i in
        let hp = String.sub e (i + 1) (String.length e - i - 1) in
        let job, task =
          match String.index_opt name ':' with
          | None -> (name, Some 0)
          | Some j ->
              ( String.sub name 0 j,
                int_of_string_opt
                  (String.sub name (j + 1) (String.length name - j - 1)) )
        in
        match (task, String.rindex_opt hp ':') with
        | Some task, Some j when job <> "" -> (
            let host = String.sub hp 0 j in
            match
              int_of_string_opt
                (String.sub hp (j + 1) (String.length hp - j - 1))
            with
            | Some port when host <> "" -> Ok ((job, task), { host; port })
            | _ -> Error (Printf.sprintf "bad cluster entry %S" e))
        | _ -> Error (Printf.sprintf "bad cluster entry %S" e))
  in
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  if parts = [] then Error "empty cluster spec"
  else
    List.fold_left
      (fun acc p ->
        match (acc, parse_entry (String.trim p)) with
        | Error _, _ -> acc
        | Ok es, Ok e -> Ok (es @ [ e ])
        | Ok _, Error m -> Error m)
      (Ok []) parts

type rpc_key = string * int * int (* peer job, peer task, step id *)

type rpc_slot = {
  rconn : Transport.conn;  (* the connection the RPC was issued on *)
  mutable reply :
    ((Octf.Node.endpoint * Octf.Value.t) list, Step_failure.t) result option;
}

type peer = {
  pkey : string * int;
  mutable conn : Transport.conn option;
  mutable dialing : bool;
  backoff : Backoff.t;
  mutable next_dial : float;  (* fail dials fast before this instant *)
  mutable ever_connected : bool;
  mutable outstanding_pings : int;
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  cond : Condition.t;  (* broadcast on RPC replies and conn events *)
  peers : (string * int, peer) Hashtbl.t;
  rpcs : (rpc_key, rpc_slot) Hashtbl.t;
  serving : (rpc_key, Cancel.t * Transport.conn) Hashtbl.t;
      (* steps in flight, keyed by the dispatching chief's identity so
         two chiefs (or a restarted one) never collide on bare step ids *)
  retired : (int, string * int) Hashtbl.t;
      (* step id → identity of the chief whose step it was; a new
         connection from that chief purges its entries, so a restarted
         chief's session counter can reuse low step ids *)
  retired_order : int Queue.t;
  rendezvous : Rendezvous.t;
  mutable session : Octf.Session.t option;
  mutable listen_fd : Unix.file_descr option;
  mutable running : bool;
  mutable ping_seq : int;
}

let retired_cap = 512

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let net_error fmt =
  Printf.ksprintf
    (fun s -> Step_failure.error (Step_failure.Network_error s))
    fmt

let peer_of t key =
  match Hashtbl.find_opt t.peers key with
  | Some p -> p
  | None ->
      let p =
        {
          pkey = key;
          conn = None;
          dialing = false;
          backoff = Backoff.create t.cfg.backoff;
          next_dial = 0.0;
          ever_connected = false;
          outstanding_pings = 0;
        }
      in
      Hashtbl.replace t.peers key p;
      p

(* Parse the recv-device job/task out of a rendezvous key
   "step:<id>;<send_device>;<recv_device>;<name>". *)
let key_route key =
  match String.split_on_char ';' key with
  | _step :: _send :: recv :: _ :: _ -> (
      match Device.of_string recv with
      | d -> Some (d.Device.job, d.Device.task)
      | exception Invalid_argument _ -> None)
  | _ -> None

let key_step_id key =
  match String.index_opt key ':' with
  | None -> None
  | Some i -> (
      let rest = String.sub key (i + 1) (String.length key - i - 1) in
      match String.index_opt rest ';' with
      | None -> None
      | Some j -> int_of_string_opt (String.sub rest 0 j))

(* Connection management ---------------------------------------------- *)

(* A new connection incarnation to/from [key] invalidates the step ids
   we retired on that peer's behalf: a restarted chief's session
   counter starts over, and a chief re-dispatching a step whose reply
   it never saw must not find its tensors dropped as late. Called with
   [t.mutex] held. *)
let purge_retired_for t key =
  let stale =
    Hashtbl.fold
      (fun id owner acc -> if owner = key then id :: acc else acc)
      t.retired []
  in
  if stale <> [] then begin
    List.iter (Hashtbl.remove t.retired) stale;
    let keep = Queue.create () in
    Queue.iter
      (fun id -> if Hashtbl.mem t.retired id then Queue.push id keep)
      t.retired_order;
    Queue.clear t.retired_order;
    Queue.transfer keep t.retired_order
  end

let register_conn t key conn ~count_reconnect =
  with_lock t (fun () ->
      let p = peer_of t key in
      let old = p.conn in
      purge_retired_for t key;
      p.conn <- Some conn;
      p.next_dial <- 0.0;
      p.outstanding_pings <- 0;
      Backoff.reset p.backoff;
      if count_reconnect && p.ever_connected then
        Metrics.Counter.incr m_reconnects;
      p.ever_connected <- true;
      Condition.broadcast t.cond;
      old)

(* A connection died: detach it from its peer, fail every RPC pending
   on that peer, and collect the cancel tokens of steps it asked us to
   serve. Tokens are fired only after the mutex is released — their
   wakers re-enter this mutex. *)
let on_close t conn reason =
  let detail = Transport.close_reason_to_string reason in
  let to_cancel =
    with_lock t (fun () ->
        (match
           Hashtbl.find_opt t.peers
             (conn.Transport.peer_job, conn.Transport.peer_task)
         with
        | Some p -> (
            match p.conn with
            | Some c when c == conn -> p.conn <- None
            | Some _ | None -> ())
        | None -> ());
        let pj = conn.Transport.peer_job and pt = conn.Transport.peer_task in
        (* fail only RPCs issued on this physical connection: a stale
           conn being replaced must not kill RPCs already riding the
           healthy replacement to the same peer *)
        Hashtbl.iter
          (fun _ slot ->
            if slot.rconn == conn && slot.reply = None then
              slot.reply <-
                Some
                  (Error
                     (Step_failure.v
                        (Step_failure.Network_error
                           (Printf.sprintf "connection to %s/%d lost: %s" pj
                              pt detail)))))
          t.rpcs;
        let cancels =
          Hashtbl.fold
            (fun _ (c, sconn) acc -> if sconn == conn then c :: acc else acc)
            t.serving []
        in
        Condition.broadcast t.cond;
        cancels)
  in
  Metrics.Gauge.decr m_connections;
  List.iter
    (fun c ->
      Cancel.cancel c
        ~reason:(Printf.sprintf "chief connection lost: %s" detail))
    to_cancel

let connect_with_timeout fd sa timeout =
  Unix.set_nonblock fd;
  (try Unix.connect fd sa with
  | Unix.Unix_error (Unix.EINPROGRESS, _, _)
  | Unix.Unix_error (Unix.EWOULDBLOCK, _, _)
  ->
    let _, w, _ = Unix.select [] [ fd ] [] timeout in
    if w = [] then raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""));
    match Unix.getsockopt_error fd with
    | None -> ()
    | Some e -> raise (Unix.Unix_error (e, "connect", "")));
  Unix.clear_nonblock fd

let rec on_message t conn msg =
  tracef "recv %s from %s (stream %d)" (Message.kind msg)
    (Transport.peer_name conn) (Message.stream_id msg);
  (* any frame is proof of life, not just Pong: a peer busy writing a
     large tensor frame cannot interleave pongs (its write mutex is
     held), yet is plainly alive *)
  with_lock t (fun () ->
      match
        Hashtbl.find_opt t.peers
          (conn.Transport.peer_job, conn.Transport.peer_task)
      with
      | Some p -> p.outstanding_pings <- 0
      | None -> ());
  match msg with
  | Message.Ping { seq } ->
      Transport.send_best_effort conn (Message.Pong { seq })
  | Message.Pong _ -> ()
  | Message.Tensor { key; value } -> (
      let retired =
        match key_step_id key with
        | None -> false
        | Some id -> with_lock t (fun () -> Hashtbl.mem t.retired id)
      in
      if retired then Metrics.Counter.incr m_late_tensors
      else
        (* On this reader thread: a Recv already armed on [key] gets
           its completion posted to its step's scheduler from here. *)
        try Rendezvous.send t.rendezvous ~key value
        with Step_failure.Error _ ->
          (* duplicate send of a retried key: drop, the step owning the
             first copy is the live one *)
          Metrics.Counter.incr m_late_tensors)
  | Message.Run_step { step_id; timeout; feeds; fetches; targets } ->
      ignore
        (Thread.create
           (fun () -> serve_step t conn ~step_id ~timeout ~feeds ~fetches ~targets)
           ())
  | Message.Cancel_step { step_id; reason } -> (
      let slot =
        with_lock t (fun () ->
            Hashtbl.find_opt t.serving
              (conn.Transport.peer_job, conn.Transport.peer_task, step_id))
      in
      match slot with
      | Some (cancel, _) -> Cancel.cancel cancel ~reason
      | None -> ())
  | Message.Step_done { step_id; result } ->
      with_lock t (fun () ->
          match
            Hashtbl.find_opt t.rpcs
              (conn.Transport.peer_job, conn.Transport.peer_task, step_id)
          with
          | Some slot when slot.reply = None ->
              slot.reply <-
                Some
                  (match result with
                  | Message.Fetched pairs -> Ok pairs
                  | Message.Failed e ->
                      Error
                        {
                          Step_failure.node = e.Message.node;
                          device = e.Message.device;
                          cause =
                            Step_failure.cause_of_wire ~kind:e.Message.kind
                              ~payload:e.Message.message;
                        });
              Condition.broadcast t.cond
          | Some _ | None -> ())
  | Message.Error_msg { kind; detail } ->
      Printf.eprintf "octf-net: peer %s reported %s: %s\n%!"
        (Transport.peer_name conn) kind detail
  | Message.Hello _ | Message.Goodbye -> ()

and retire_step t ~owner ~step_id =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.retired step_id) then begin
        Queue.push step_id t.retired_order;
        while Queue.length t.retired_order > retired_cap do
          Hashtbl.remove t.retired (Queue.pop t.retired_order)
        done
      end;
      Hashtbl.replace t.retired step_id owner);
  ignore (Rendezvous.drop_step t.rendezvous ~step_id)

(* Serve one Run_step from a remote chief: execute our partitions of
   the step and answer Step_done — with fetched values, or with the
   structured failure, never silence. *)
and serve_step t conn ~step_id ~timeout ~feeds ~fetches ~targets =
  Metrics.Counter.incr m_steps_served;
  tracef "serve_step %d: %d feeds, %d fetches, %d targets" step_id
    (List.length feeds) (List.length fetches) (List.length targets);
  let reply result =
    Transport.send_best_effort conn (Message.Step_done { step_id; result })
  in
  match t.session with
  | None ->
      reply
        (Message.Failed
           {
             Message.node = None;
             device = None;
             kind = "network_error";
             message = "task is not serving a session";
           })
  | Some session ->
      let chief = (conn.Transport.peer_job, conn.Transport.peer_task) in
      let skey = (fst chief, snd chief, step_id) in
      let cancel = Cancel.create ?deadline:timeout () in
      let fresh =
        with_lock t (fun () ->
            if Hashtbl.mem t.serving skey then false
            else begin
              Hashtbl.replace t.serving skey (cancel, conn);
              true
            end)
      in
      if not fresh then
        reply
          (Message.Failed
             {
               Message.node = None;
               device = None;
               kind = "network_error";
               message = Printf.sprintf "step %d already running" step_id;
             })
      else begin
        let result =
          match
            Octf.Session.run_serve session ~step_id ~feeds ~fetches ~targets
              ~cancel ()
          with
          | Ok pairs -> Message.Fetched pairs
          | Error (f : Step_failure.t) ->
              Message.Failed
                {
                  Message.node = f.Step_failure.node;
                  device = f.Step_failure.device;
                  kind = Step_failure.cause_kind f.Step_failure.cause;
                  message = Step_failure.cause_payload f.Step_failure.cause;
                }
          | exception e ->
              Message.Failed
                {
                  Message.node = None;
                  device = None;
                  kind = "kernel_failed";
                  message = Printexc.to_string e;
                }
        in
        Cancel.complete cancel;
        with_lock t (fun () -> Hashtbl.remove t.serving skey);
        retire_step t ~owner:chief ~step_id;
        tracef "serve_step %d done: %s" step_id
          (match result with
          | Message.Fetched l -> Printf.sprintf "%d fetches" (List.length l)
          | Message.Failed e -> e.Message.kind);
        reply result
      end

(* Dial (job, task): resolve its cluster address, connect with a
   timeout, handshake, start the reader. Called without [t.mutex]
   held. *)
and dial t key =
  let job, task = key in
  match List.assoc_opt key t.cfg.cluster with
  | None -> raise (net_error "no cluster address for /job:%s/task:%d" job task)
  | Some { host; port } -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ ->
            (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        connect_with_timeout fd (Unix.ADDR_INET (ip, port)) t.cfg.connect_timeout;
        (* bound the handshake read so a wedged peer cannot hang us *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.connect_timeout;
        let conn = Transport.create fd ~peer_job:job ~peer_task:task in
        let pj, pt = Transport.handshake conn ~job:t.cfg.job ~task:t.cfg.task in
        if (pj, pt) <> key then
          raise
            (Frame.Frame_error
               (Frame.Protocol_error
                  (Printf.sprintf "dialed /job:%s/task:%d but peer is %s/%d"
                     job task pj pt)));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.0;
        Metrics.Gauge.incr m_connections;
        ignore
          (Transport.spawn_reader conn ~on_message:(on_message t)
             ~on_close:(on_close t));
        conn
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let detail =
          match e with
          | Unix.Unix_error (ue, _, _) -> Unix.error_message ue
          | Frame.Frame_error fe -> Frame.error_to_string fe
          | Frame.Closed -> "peer closed during handshake"
          | e -> Printexc.to_string e
        in
        Metrics.Counter.incr m_dial_failures;
        raise (net_error "dial /job:%s/task:%d (%s:%d): %s" job task host port
                 detail))

(* The single entry point for "a live connection to this peer, or a
   fast structured failure". Reconnect pacing lives here: after a
   failed dial the peer's next_dial moves into the future along the
   backoff schedule, and callers before that instant fail without
   touching the network. *)
and get_conn t key =
  Mutex.lock t.mutex;
  let rec loop () =
    let p = peer_of t key in
    match p.conn with
    | Some c when c.Transport.alive ->
        Mutex.unlock t.mutex;
        c
    | _ ->
        if p.dialing then begin
          Condition.wait t.cond t.mutex;
          loop ()
        end
        else begin
          let now = Unix.gettimeofday () in
          if now < p.next_dial then begin
            let wait = p.next_dial -. now in
            Mutex.unlock t.mutex;
            raise
              (net_error
                 "/job:%s/task:%d unreachable (next dial in %.0f ms)"
                 (fst key) (snd key) (1000.0 *. wait))
          end;
          p.dialing <- true;
          Mutex.unlock t.mutex;
          let outcome = try Ok (dial t key) with e -> Error e in
          match outcome with
          | Ok conn ->
              ignore (register_conn t key conn ~count_reconnect:true);
              with_lock t (fun () ->
                  p.dialing <- false;
                  Condition.broadcast t.cond);
              conn
          | Error e ->
              with_lock t (fun () ->
                  p.dialing <- false;
                  (match Backoff.next p.backoff with
                  | Some d -> p.next_dial <- Unix.gettimeofday () +. d
                  | None -> p.next_dial <- Unix.gettimeofday () +. t.cfg.backoff.Backoff.cap);
                  Condition.broadcast t.cond);
              raise e
        end
  in
  loop ()

(* Rendezvous route hook: true = the key's receiver is another
   process and the value went (or structurally failed to go) over the
   wire. *)
let route t ~key value =
  match key_route key with
  | None ->
      tracef "route %s: unparsable recv device, keeping local" key;
      false
  | Some (job, task) ->
      if job = t.cfg.job && task = t.cfg.task then false
      else begin
        tracef "route %s -> %s/%d" key job task;
        let conn = get_conn t (job, task) in
        Transport.send conn (Message.Tensor { key; value });
        true
      end

(* Heartbeats: one thread pings every live connection each interval;
   [heartbeat_misses] intervals without a pong close the connection,
   which fails pending RPCs and routes through the normal close path.
   Both dialed and accepted connections are monitored — either end of
   a wedged link should notice. *)
let heartbeat_loop t =
  while t.running do
    Thread.delay t.cfg.heartbeat_interval;
    if t.running then begin
      let now = Unix.gettimeofday () in
      let rx_budget =
        t.cfg.heartbeat_interval *. float_of_int t.cfg.heartbeat_misses
      in
      let to_ping, to_kill =
        with_lock t (fun () ->
            Hashtbl.fold
              (fun _ p (ping, kill) ->
                match p.conn with
                | Some c when c.Transport.alive ->
                    (* missed pongs alone do not condemn a peer: bytes
                       still arriving (a large frame mid-transfer) are
                       liveness even though no complete message lands *)
                    if
                      p.outstanding_pings >= t.cfg.heartbeat_misses
                      && now -. c.Transport.last_rx >= rx_budget
                    then (ping, c :: kill)
                    else begin
                      p.outstanding_pings <- p.outstanding_pings + 1;
                      if p.outstanding_pings > 1 then
                        Metrics.Counter.incr m_heartbeat_misses;
                      (c :: ping, kill)
                    end
                | _ -> (ping, kill))
              t.peers ([], []))
      in
      List.iter
        (fun c ->
          Metrics.Counter.incr m_peer_deaths;
          Printf.eprintf
            "octf-net: peer %s missed %d heartbeats, closing connection\n%!"
            (Transport.peer_name c) t.cfg.heartbeat_misses;
          (* close triggers the reader's EOF path, which runs on_close *)
          Transport.close c)
        to_kill;
      let seq = with_lock t (fun () -> t.ping_seq <- t.ping_seq + 1; t.ping_seq) in
      List.iter
        (fun c -> Transport.send_best_effort c (Message.Ping { seq }))
        to_ping
    end
  done

(* Accept loop: handshake synchronously (bounded by SO_RCVTIMEO), then
   register the connection under the identity the peer declared so
   reverse traffic — tensors flowing back to a chief that dialed us —
   reuses this socket instead of dialing one of its own. *)
let accept_loop t fd =
  while t.running do
    match Unix.accept fd with
    | exception Unix.Unix_error _ -> if t.running then Thread.delay 0.01
    | client, _ -> (
        try
          Unix.setsockopt client Unix.TCP_NODELAY true;
          Unix.setsockopt_float client Unix.SO_RCVTIMEO t.cfg.connect_timeout;
          let conn = Transport.create client ~peer_job:"?" ~peer_task:(-1) in
          let pj, pt = Transport.handshake conn ~job:t.cfg.job ~task:t.cfg.task in
          Unix.setsockopt_float client Unix.SO_RCVTIMEO 0.0;
          Metrics.Gauge.incr m_connections;
          let old = register_conn t (pj, pt) conn ~count_reconnect:false in
          (* a stale previous connection to the same peer is dead to us:
             drop it so its reader thread cleans up *)
          (match old with
          | Some o when o != conn && o.Transport.alive -> Transport.close o
          | _ -> ());
          ignore
            (Transport.spawn_reader conn ~on_message:(on_message t)
               ~on_close:(on_close t))
        with e ->
          Printf.eprintf "octf-net: rejected connection: %s\n%!"
            (Printexc.to_string e);
          (try Unix.close client with Unix.Unix_error _ -> ()))
  done

(* Writes racing a peer's death deliver SIGPIPE, whose default
   disposition kills the whole process; with it ignored they raise
   [Unix_error EPIPE] and flow through the structured write-failure
   path instead. Installed once, by the first runtime in the process. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let create cfg =
  Lazy.force ignore_sigpipe;
  (* the route hook needs [t], which holds the rendezvous the hook is
     installed on; tie the knot through a cell *)
  let cell = ref None in
  let rendezvous =
    Rendezvous.create
      ~route:(fun ~key v ->
        match !cell with None -> false | Some t -> route t ~key v)
      ()
  in
  let t =
    {
      cfg;
      mutex = Mutex.create ();
      cond = Condition.create ();
      peers = Hashtbl.create 8;
      rpcs = Hashtbl.create 16;
      serving = Hashtbl.create 16;
      retired = Hashtbl.create 64;
      retired_order = Queue.create ();
      rendezvous;
      session = None;
      listen_fd = None;
      running = true;
      ping_seq = 0;
    }
  in
  cell := Some t;
  (match List.assoc_opt (cfg.job, cfg.task) cfg.cluster with
  | None -> ()
  | Some { port; _ } ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (* A port already taken fails [create] without leaking the socket. *)
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_any, port));
         Unix.listen fd 16
       with e ->
         Unix.close fd;
         raise e);
      t.listen_fd <- Some fd;
      ignore (Thread.create (fun () -> accept_loop t fd) ()));
  ignore (Thread.create (fun () -> heartbeat_loop t) ());
  t

let rendezvous t = t.rendezvous

let serve t ~session = t.session <- Some session

(* Run one step's partitions on a remote task and wait for Step_done.
   An RPC-local cancel token parented under the step's token gives the
   wait a hard bound ([rpc_timeout]) even when the step has no
   deadline; the parent link propagates step-level cancellation. *)
let run_partitions t ~job ~task ~step_id ~feeds ~fetches ~targets ~deadline
    ~cancel =
  Metrics.Counter.incr m_rpcs;
  let fail f =
    Metrics.Counter.incr m_rpc_failures;
    Error f
  in
  match get_conn t (job, task) with
  | exception Step_failure.Error f -> fail f
  | conn -> (
      let key = (job, task, step_id) in
      let slot = { rconn = conn; reply = None } in
      with_lock t (fun () -> Hashtbl.replace t.rpcs key slot);
      let finish r =
        with_lock t (fun () -> Hashtbl.remove t.rpcs key);
        match r with Ok v -> Ok v | Error f -> fail f
      in
      let timeout =
        match deadline with
        | Some d -> Some (min d t.cfg.rpc_timeout)
        | None -> Some t.cfg.rpc_timeout
      in
      match
        Transport.send conn
          (Message.Run_step { step_id; timeout; feeds; fetches; targets })
      with
      | exception Step_failure.Error f -> finish (Error f)
      | () ->
          let rpc_cancel =
            Cancel.create ?parent:cancel ~deadline:t.cfg.rpc_timeout ()
          in
          let wake () =
            Mutex.lock t.mutex;
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex
          in
          let result =
            Cancel.with_waker (Some rpc_cancel) wake (fun () ->
                with_lock t (fun () ->
                    let rec wait () =
                      match slot.reply with
                      | Some r -> r
                      | None -> (
                          match Cancel.cancelled rpc_cancel with
                          | Some cause ->
                              Error
                                (Step_failure.v
                                   (match (cancel, cause) with
                                   | Some c, _
                                     when Cancel.cancelled c <> None ->
                                       (* the step itself was cancelled
                                          or timed out *)
                                       Option.get (Cancel.cancelled c)
                                   | _, Step_failure.Deadline_exceeded _ ->
                                       Step_failure.Network_error
                                         (Printf.sprintf
                                            "run_step rpc to %s/%d timed \
                                             out after %g s"
                                            job task t.cfg.rpc_timeout)
                                   | _, cause -> cause))
                          | None ->
                              Condition.wait t.cond t.mutex;
                              wait ())
                    in
                    wait ()))
          in
          Cancel.complete rpc_cancel;
          (match result with
          | Error _ ->
              (* tell the peer to stop burning cycles on this step *)
              Transport.send_best_effort conn
                (Message.Cancel_step
                   { step_id; reason = "chief abandoned step" })
          | Ok _ -> ());
          finish result)

let runner t : Octf.Remote.runner =
  {
    Octf.Remote.is_local =
      (fun d -> d.Device.job = t.cfg.job && d.Device.task = t.cfg.task);
    rendezvous = t.rendezvous;
    run_partitions =
      (fun ~job ~task ~step_id ~feeds ~fetches ~targets ~deadline ~cancel ->
        run_partitions t ~job ~task ~step_id ~feeds ~fetches ~targets
          ~deadline ~cancel);
    retire_step =
      (* locally-issued steps are owned by this process itself; a fresh
         process has a fresh table, so self-owned ids never collide *)
      (fun ~step_id -> retire_step t ~owner:(t.cfg.job, t.cfg.task) ~step_id);
  }

let shutdown t =
  t.running <- false;
  (match t.listen_fd with
  | Some fd ->
      t.listen_fd <- None;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  let conns =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun _ p acc ->
            match p.conn with
            | Some c ->
                p.conn <- None;
                c :: acc
            | None -> acc)
          t.peers [])
  in
  List.iter
    (fun c ->
      Transport.send_best_effort c Message.Goodbye;
      Transport.close c)
    conns
