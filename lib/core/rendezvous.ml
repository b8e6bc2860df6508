exception Aborted of string

(* The key format agreed between a Send/Recv pair. Scoping the key by
   step id means even a rendezvous shared across in-flight steps can
   never deliver step N's tensor to step N+1's Recv — per-step isolation
   holds by construction, not only because sessions happen to allocate
   one rendezvous per step today. The step-independent suffix is built
   once per plan node; a step only prefixes it. *)
let key_suffix ~send_device ~recv_device ~tensor_name =
  String.concat ";" [ send_device; recv_device; tensor_name ]

let node_suffix (n : Node.t) =
  key_suffix
    ~send_device:(Node.attr_string n "send_device")
    ~recv_device:(Node.attr_string n "recv_device")
    ~tensor_name:(Node.attr_string n "tensor_name")

let key ~step_id suffix =
  String.concat "" [ "step:"; string_of_int step_id; ";"; suffix ]

let step_key ~step_id ~send_device ~recv_device ~tensor_name =
  key ~step_id (key_suffix ~send_device ~recv_device ~tensor_name)

(* Process-wide series, aggregated over all live rendezvous objects
   (sessions create one per distributed step). *)
let m_pending =
  Metrics.Gauge.v ~help:"Tensors sent but not yet received"
    "octf_rendezvous_pending"

let m_sends =
  Metrics.Counter.v ~help:"Rendezvous send operations"
    "octf_rendezvous_sends_total"

let m_recvs =
  Metrics.Counter.v ~help:"Rendezvous recv completions"
    "octf_rendezvous_recvs_total"

let m_send_bytes =
  Metrics.Counter.v ~help:"Tensor bytes passed to rendezvous send"
    "octf_rendezvous_send_bytes_total"

let m_recv_bytes =
  Metrics.Counter.v ~help:"Tensor bytes delivered by rendezvous recv"
    "octf_rendezvous_recv_bytes_total"

let m_aborts =
  Metrics.Counter.v ~help:"Rendezvous aborts" "octf_rendezvous_aborts_total"

type outcome = (Value.t, string) result

(* A key holds either a value nobody has taken yet or the continuation
   of a receiver that arrived first; never both. *)
type entry = Sent of Value.t | Armed of (outcome -> unit)

type t = {
  table : (string, entry) Hashtbl.t;
  mutable aborted : string option;
  mutex : Mutex.t;
  route : (key:string -> Value.t -> bool) option;
      (* Out-of-process delivery hook (Octf_net): consulted by [send]
         before the local table, outside the mutex (it does network
         I/O). Returns true when it consumed the value — the key's
         receiver lives in another process. *)
}

let create ?route () =
  { table = Hashtbl.create 32; aborted = None; mutex = Mutex.create (); route }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let count_recv v =
  Metrics.Counter.incr m_recvs;
  Metrics.Counter.add m_recv_bytes (Value.byte_size v)

(* Under the lock: consume [key]'s value if it has been sent. *)
let take t key =
  match Hashtbl.find_opt t.table key with
  | Some (Sent v) ->
      Hashtbl.remove t.table key;
      Metrics.Gauge.decr m_pending;
      count_recv v;
      Some v
  | Some (Armed _) | None -> None

(* Continuations run after the lock is released: they take the
   receiver's own lock (a scheduler's completion queue). *)
let local_send t ~key v =
  let armed =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some (Sent _) ->
            raise (Step_failure.error (Step_failure.Duplicate_send key))
        | Some (Armed k) ->
            Hashtbl.remove t.table key;
            count_recv v;
            Some k
        | None ->
            Hashtbl.replace t.table key (Sent v);
            Metrics.Gauge.incr m_pending;
            None)
  in
  Metrics.Counter.incr m_sends;
  Metrics.Counter.add m_send_bytes (Value.byte_size v);
  Option.iter (fun k -> k (Ok v)) armed

let send t ~key v =
  match t.route with
  | Some route when route ~key v ->
      (* Delivered into another process; that side's rendezvous counts
         it as pending. The route raises a structured Step_failure on
         transport failure, surfacing through the Send kernel. *)
      Metrics.Counter.incr m_sends;
      Metrics.Counter.add m_send_bytes (Value.byte_size v)
  | _ -> local_send t ~key v

let arm t ~key k =
  let now =
    with_lock t (fun () ->
        match t.aborted with
        | Some reason -> Some (Error reason)
        | None -> (
            match take t key with
            | Some v -> Some (Ok v)
            | None ->
                if Hashtbl.mem t.table key then
                  invalid_arg ("Rendezvous.arm: key already armed: " ^ key);
                Hashtbl.replace t.table key (Armed k);
                None))
  in
  Option.iter k now

let abort t ~reason =
  (* A routed rendezvous is process-global and outlives any one step: a
     sticky abort here (say, from a Send kernel whose connection just
     died) would poison every later step in the process, and failing
     its armed receivers would fail other steps' Recvs. Per-step
     teardown is the step's cancel token plus [drop_step]. *)
  if t.route = None then begin
    let armed =
      with_lock t (fun () ->
          if t.aborted <> None then []
          else begin
            t.aborted <- Some reason;
            Metrics.Counter.incr m_aborts;
            let armed =
              Hashtbl.fold
                (fun key e acc ->
                  match e with Armed k -> (key, k) :: acc | Sent _ -> acc)
                t.table []
            in
            List.iter (fun (key, _) -> Hashtbl.remove t.table key) armed;
            (* What is left are values nobody can receive any more (every
               receiver fails): stop counting them as pending. *)
            Metrics.Gauge.add m_pending
              (-.float_of_int (Hashtbl.length t.table));
            List.map snd armed
          end)
    in
    List.iter (fun k -> k (Error reason)) armed
  end

let pending_count t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ e n -> match e with Sent _ -> n + 1 | Armed _ -> n)
        t.table 0)

(* Scrub what a finished step left behind: sends whose paired Recv was
   cancelled, abandoned, or raced the step's failure, and Recvs armed
   by a part that failed before their value came. Long-lived rendezvous
   (the process-global network one) would otherwise grow without
   bound. *)
let drop_step t ~step_id =
  let prefix = key ~step_id "" in
  with_lock t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun k e acc ->
            if String.starts_with ~prefix k then (k, e) :: acc else acc)
          t.table []
      in
      List.iter
        (fun (k, e) ->
          Hashtbl.remove t.table k;
          match e with
          | Sent _ when t.aborted = None -> Metrics.Gauge.decr m_pending
          | Sent _ | Armed _ -> ())
        doomed;
      List.length doomed)
