open Octf_tensor
module Session = Octf.Session
module B = Octf.Builder
module GO = Octf.Graph_optimizer
module SF = Octf.Step_failure
module Metrics = Octf.Metrics
module Cancel = Octf.Cancel

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let label name = [ ("server", name) ]

let m_requests name =
  Metrics.Counter.v ~help:"Requests submitted" ~labels:(label name)
    "octf_serving_requests_total"

let m_served name =
  Metrics.Counter.v ~help:"Requests answered successfully"
    ~labels:(label name) "octf_serving_served_total"

let m_rejected name reason =
  Metrics.Counter.v ~help:"Requests rejected at admission"
    ~labels:(("reason", reason) :: label name)
    "octf_serving_rejected_total"

let m_failed name cause =
  Metrics.Counter.v ~help:"Admitted requests that failed, by cause kind"
    ~labels:(("cause", cause) :: label name)
    "octf_serving_failed_total"

let m_queue_depth name =
  Metrics.Gauge.v ~help:"Requests waiting in the admission queue"
    ~labels:(label name) "octf_serving_queue_depth"

let m_batches name =
  Metrics.Counter.v ~help:"Batched steps dispatched" ~labels:(label name)
    "octf_serving_batches_total"

let m_batch_size name =
  Metrics.Histogram.v ~help:"Live requests coalesced per batched step"
    ~labels:(label name) "octf_serving_batch_size"

let m_request_seconds name =
  Metrics.Histogram.v ~help:"Submit-to-answer latency in seconds"
    ~labels:(label name) "octf_serving_request_seconds"

(* Registry lookups build a canonical label key per call; the per-request
   and per-batch series are resolved once at [create] and the handles
   kept on the server. Rejection/failure series keep the lookup — their
   label sets are dynamic (reason/cause) and those paths are cold. *)
type hot_metrics = {
  hm_requests : Metrics.Counter.m;
  hm_served : Metrics.Counter.m;
  hm_queue_depth : Metrics.Gauge.m;
  hm_batches : Metrics.Counter.m;
  hm_batch_size : Metrics.Histogram.m;
  hm_request_seconds : Metrics.Histogram.m;
}

let hot_metrics name =
  {
    hm_requests = m_requests name;
    hm_served = m_served name;
    hm_queue_depth = m_queue_depth name;
    hm_batches = m_batches name;
    hm_batch_size = m_batch_size name;
    hm_request_seconds = m_request_seconds name;
  }

(* ------------------------------------------------------------------ *)
(* Freeze                                                              *)

let freeze_pipeline ~quantize ~fusion ?ranges values =
  (* Freeze first, re-prune so the frozen Consts (and the now-dead
     Variables) are in/out of the working set, then the standard
     pipeline over the inference subgraph. With [quantize], the int8
     pass runs next — after freezing, so weights are F32 Consts (its
     eligibility condition) — against the calibrated [ranges] lookup
     (default: none, i.e. dynamic activation quantization). With
     [fusion], Fuse runs last, so the int8 pass still sees the unfused
     bias-add and Relu it absorbs into its islands. *)
  let base = GO.Freeze values :: GO.Prune :: GO.default_pipeline in
  let quantized =
    if quantize then
      [ GO.Quantize (Option.value ~default:(fun _ -> None) ranges); GO.Prune ]
    else []
  in
  base @ quantized @ if fusion then [ GO.Fuse; GO.Prune ] else []

let endpoint_list outputs = List.map B.endpoint_of_output outputs

(* After the freeze pipeline ran, the inference subgraph must be a pure
   function of its placeholders: any surviving stateful operation means
   a variable the lookup could not resolve (or state the model really
   depends on), and a "frozen" server would silently read live state. *)
let verify_stateless graph nodes =
  let offenders =
    List.filter_map
      (fun id ->
        let n = Octf.Graph.get graph id in
        if Octf.Node.is_stateful n then
          Some (n.Octf.Node.name ^ " (" ^ n.Octf.Node.op_type ^ ")")
        else None)
      nodes
  in
  if offenders <> [] then
    raise
      (SF.error
         (SF.Invalid_graph
            ("freeze left stateful operations in the inference subgraph \
              (uninitialized or unresolvable variables?): "
            ^ String.concat ", " offenders)))

let inference_node_count session ~inputs ~outputs =
  List.length
    (Octf.Pruner.prune (Session.graph session) ~feeds:(endpoint_list inputs)
       ~fetches:(endpoint_list outputs) ~targets:[])

let freeze ?(config = Session.Config.default) ?quantize ?ranges ~values
    ~inputs ~outputs graph =
  (* Work on a copy: the freeze pass rewrites edges in place, and the
     training graph must keep reading its live variables. *)
  let graph = Octf.Graph.copy graph in
  (* Explicit argument, then Session.create's resolution. *)
  let resolved = Session.Config.of_env config in
  let quantize =
    match quantize with
    | Some b -> b
    | None -> Option.get resolved.Session.Config.quantize
  in
  let fusion = Option.get resolved.Session.Config.fusion in
  let nodes =
    GO.run graph
      ~passes:(freeze_pipeline ~quantize ~fusion ?ranges values)
      ~feeds:(endpoint_list inputs) ~fetches:(endpoint_list outputs)
      ~targets:[]
  in
  verify_stateless graph nodes;
  (* The copy is frozen and optimized: the session only prunes it.
     Compile the inference step now: every request then reuses the
     cached plan — the signature ignores shapes, so one plan serves
     every batch size. *)
  let config = { config with Session.Config.passes = Some [] } in
  let session = Session.create ~config graph in
  Session.precompile ~feeds:inputs session outputs;
  session

let freeze_session ?config ?quantize ?ranges ~inputs ~outputs session =
  freeze ?config ?quantize ?ranges
    ~values:(Session.variable_values session)
    ~inputs ~outputs (Session.graph session)

let freeze_checkpoint ?config ?quantize ?ranges ~path ~inputs ~outputs graph =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (name, tensor) -> Hashtbl.replace tbl name tensor)
    (Octf.Checkpoint_format.read_all path);
  freeze ?config ?quantize ?ranges ~values:(Hashtbl.find_opt tbl) ~inputs
    ~outputs graph

(* ------------------------------------------------------------------ *)
(* Batching tensor plumbing                                            *)

(* Row [i] of a batched tensor, with the leading axis dropped. *)
let unstack_row batched i = Tensor_ops.gather batched (Tensor.scalar_i i)

(* ------------------------------------------------------------------ *)
(* The server                                                          *)

type request = {
  r_inputs : Tensor.t list;
  r_deadline : float option;  (* absolute, Unix.gettimeofday clock *)
  r_enqueued : float;
  r_mutex : Mutex.t;
  r_cond : Condition.t;
  mutable r_result : (Tensor.t list, SF.t) result option;
}

type stats = {
  submitted : int;
  served : int;
  rejected : int;
  failed : int;
  batches : int;
  max_batch : int;
  queue_depth : int;
}

type t = {
  name : string;
  metrics : hot_metrics;
  session : Session.t;
  inputs : B.output list;
  outputs : B.output list;
  max_batch_size : int;
  max_queue_delay : float;
  queue_capacity : int;
  default_deadline : float option;
  mutex : Mutex.t;
  nonempty : Condition.t;
      (* the batcher's one wait: for a first request, then for the
         fill window to end (the batch fills, the server stops or the
         window's timer entry fires) *)
  queue : request Queue.t;
  cancel : Cancel.t;  (* group token: parent of every batched step's *)
  mutable expected : (Dtype.t * int array) list option;
      (* per-example input signature, fixed by the first admitted
         request so shape rejections don't depend on batch grouping *)
  mutable running : bool;
  mutable batcher : Thread.t option;
  mutable n_submitted : int;
  mutable n_served : int;
  mutable n_rejected : int;
  mutable n_failed : int;
  mutable n_batches : int;
  mutable n_max_batch : int;
}

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let budget_of r =
  match r.r_deadline with Some d -> d -. r.r_enqueued | None -> 0.0

(* Publish one request's outcome and account for it. Never called with
   [t.mutex] held (finish takes it for the counters). *)
let finish t r result =
  Mutex.lock r.r_mutex;
  if r.r_result = None then r.r_result <- Some result;
  Condition.broadcast r.r_cond;
  Mutex.unlock r.r_mutex;
  let latency = Unix.gettimeofday () -. r.r_enqueued in
  Metrics.Histogram.observe t.metrics.hm_request_seconds latency;
  (match result with
  | Ok _ -> Metrics.Counter.incr t.metrics.hm_served
  | Error f ->
      Metrics.Counter.incr
        (m_failed t.name (SF.cause_kind f.SF.cause)));
  with_lock t (fun () ->
      match result with
      | Ok _ -> t.n_served <- t.n_served + 1
      | Error _ -> t.n_failed <- t.n_failed + 1)

let expired r ~now =
  match r.r_deadline with Some d -> d <= now | None -> false

(* Execute one coalesced batch. Requests that expired in the queue are
   rejected without running; the step itself runs under the
   longest-remaining member budget (through the session's own Cancel
   token, child of the server's group token), and members whose own
   deadline passed mid-batch are expired even though their rows were
   computed. *)
let dispatch t batch =
  let now = Unix.gettimeofday () in
  let dead, live = List.partition (fun r -> expired r ~now) batch in
  List.iter
    (fun r -> finish t r (Error (SF.v (SF.Deadline_exceeded (budget_of r)))))
    dead;
  if live <> [] then begin
    let n = List.length live in
    Metrics.Counter.incr t.metrics.hm_batches;
    Metrics.Histogram.observe t.metrics.hm_batch_size (float_of_int n);
    with_lock t (fun () ->
        t.n_batches <- t.n_batches + 1;
        if n > t.n_max_batch then t.n_max_batch <- n);
    let feeds =
      List.mapi
        (fun j input ->
          (input,
           Tensor_ops.stack (List.map (fun r -> List.nth r.r_inputs j) live)))
        t.inputs
    in
    let deadline =
      (* the most patient live member bounds the step; members with no
         deadline make the step unbounded *)
      List.fold_left
        (fun acc r ->
          match (acc, r.r_deadline) with
          | Some a, Some d -> Some (Float.max a (d -. now))
          | _ -> None)
        (Some 0.0) live
    in
    let deadline =
      Option.map (fun d -> Float.max d 1e-3) deadline
    in
    match
      Session.run_with_metadata
        ~options:
          (Session.Run_options.v ~feeds ?deadline ~cancel:t.cancel ())
        t.session t.outputs
    with
    | tensors, _md ->
        let now = Unix.gettimeofday () in
        let bad_shape =
          List.exists
            (fun out ->
              let s = Tensor.shape out in
              Array.length s = 0 || s.(0) <> n)
            tensors
        in
        if bad_shape then
          let f =
            SF.v
              (SF.Invalid_graph
                 "serving outputs are not batched along axis 0")
          in
          List.iter (fun r -> finish t r (Error f)) live
        else
          List.iteri
            (fun i r ->
              if expired r ~now then
                finish t r
                  (Error (SF.v (SF.Deadline_exceeded (budget_of r))))
              else
                finish t r
                  (Ok (List.map (fun out -> unstack_row out i) tensors)))
            live
    | exception Session.Run_error f ->
        List.iter (fun r -> finish t r (Error f)) live
    | exception e ->
        let f = SF.v (SF.Kernel_failed (Printexc.to_string e)) in
        List.iter (fun r -> finish t r (Error f)) live
  end

(* The batching state machine: wait for a first request, hold the batch
   open until it is full or the first member has waited
   [max_queue_delay], dispatch, repeat. On shutdown the queue backlog is
   failed, not served. *)
let rec batcher_loop t =
  Mutex.lock t.mutex;
  while t.running && Queue.is_empty t.queue do
    Condition.wait t.nonempty t.mutex
  done;
  if not t.running then begin
    let leftovers = ref [] in
    Queue.iter (fun r -> leftovers := r :: !leftovers) t.queue;
    Queue.clear t.queue;
    Metrics.Gauge.set t.metrics.hm_queue_depth 0.0;
    Mutex.unlock t.mutex;
    List.iter
      (fun r ->
        finish t r (Error (SF.v (SF.Cancelled "serving: shut down"))))
      (List.rev !leftovers)
  end
  else begin
    let window_end = (Queue.peek t.queue).r_enqueued +. t.max_queue_delay in
    (* Hold the batch open until it is full, the server stops or the
       window closes. *)
    let filling () =
      t.running
      && Queue.length t.queue < t.max_batch_size
      && Unix.gettimeofday () < window_end
    in
    if filling () then begin
      let close_window =
        Octf.Timer.at window_end (fun () ->
            Mutex.lock t.mutex;
            Condition.signal t.nonempty;
            Mutex.unlock t.mutex)
      in
      while filling () do
        Condition.wait t.nonempty t.mutex
      done;
      Octf.Timer.cancel close_window
    end;
    let batch = ref [] in
    while List.length !batch < t.max_batch_size && not (Queue.is_empty t.queue)
    do
      batch := Queue.pop t.queue :: !batch
    done;
    Metrics.Gauge.set t.metrics.hm_queue_depth
      (float_of_int (Queue.length t.queue));
    Mutex.unlock t.mutex;
    dispatch t (List.rev !batch);
    batcher_loop t
  end

let create ?(name = "default") ?(max_batch_size = 8)
    ?(max_queue_delay = 0.002) ?(queue_capacity = 64) ?default_deadline
    ~session ~inputs ~outputs () =
  if max_batch_size < 1 then
    invalid_arg "Serving.create: max_batch_size < 1";
  if max_queue_delay < 0.0 then
    invalid_arg "Serving.create: max_queue_delay < 0";
  if queue_capacity < 1 then invalid_arg "Serving.create: queue_capacity < 1";
  if inputs = [] then invalid_arg "Serving.create: no inputs";
  if outputs = [] then invalid_arg "Serving.create: no outputs";
  (* Compile the one step every batch reuses before admitting traffic. *)
  Session.precompile ~feeds:inputs session outputs;
  let t =
    {
      name;
      metrics = hot_metrics name;
      session;
      inputs;
      outputs;
      max_batch_size;
      max_queue_delay;
      queue_capacity;
      default_deadline;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      cancel = Cancel.create ();
      expected = None;
      running = true;
      batcher = None;
      n_submitted = 0;
      n_served = 0;
      n_rejected = 0;
      n_failed = 0;
      n_batches = 0;
      n_max_batch = 0;
    }
  in
  t.batcher <- Some (Thread.create batcher_loop t);
  t

let signature_of examples =
  List.map (fun x -> (Tensor.dtype x, Tensor.shape x)) examples

let signature_mismatch expected got =
  List.length expected <> List.length got
  || List.exists2
       (fun (dt, sh) (dt', sh') -> dt <> dt' || sh <> sh')
       expected got

let submit ?deadline t examples =
  Metrics.Counter.incr t.metrics.hm_requests;
  let now = Unix.gettimeofday () in
  let r =
    {
      r_inputs = examples;
      r_deadline =
        (match (deadline, t.default_deadline) with
        | Some d, _ | None, Some d -> Some (now +. d)
        | None, None -> None);
      r_enqueued = now;
      r_mutex = Mutex.create ();
      r_cond = Condition.create ();
      r_result = None;
    }
  in
  let reject reason cause =
    with_lock t (fun () -> t.n_rejected <- t.n_rejected + 1);
    Metrics.Counter.incr (m_rejected t.name reason);
    Error (SF.v cause)
  in
  if List.length examples <> List.length t.inputs then
    reject "arity"
      (SF.Invalid_graph
         (Printf.sprintf "request has %d inputs, the model takes %d"
            (List.length examples) (List.length t.inputs)))
  else
    let admitted =
      with_lock t (fun () ->
          t.n_submitted <- t.n_submitted + 1;
          if not t.running then `Shut_down
          else
            let sg = signature_of examples in
            match t.expected with
            | Some expected when signature_mismatch expected sg ->
                `Bad_signature
            | _ ->
                if Queue.length t.queue >= t.queue_capacity then
                  `Overloaded (Queue.length t.queue)
                else begin
                  if t.expected = None then t.expected <- Some sg;
                  Queue.add r t.queue;
                  let depth = Queue.length t.queue in
                  Metrics.Gauge.set t.metrics.hm_queue_depth
                    (float_of_int depth);
                  (* The batcher waits for a first request, then for
                     the window to end, which only a full batch does
                     early. *)
                  if depth = 1 || depth = t.max_batch_size then
                    Condition.signal t.nonempty;
                  `Admitted
                end)
    in
    match admitted with
    | `Admitted -> Ok r
    | `Shut_down ->
        reject "shutdown" (SF.Cancelled "serving: shut down")
    | `Bad_signature ->
        reject "signature"
          (SF.Invalid_graph
             "request tensor dtypes/shapes do not match the served \
              signature")
    | `Overloaded depth ->
        reject "overloaded"
          (SF.Overloaded
             (Printf.sprintf
                "admission queue at high-watermark (%d waiting, capacity \
                 %d)"
                depth t.queue_capacity))

let await r =
  Mutex.lock r.r_mutex;
  while r.r_result = None do
    Condition.wait r.r_cond r.r_mutex
  done;
  let result = Option.get r.r_result in
  Mutex.unlock r.r_mutex;
  result

let infer ?deadline t examples =
  match submit ?deadline t examples with
  | Error f -> Error f
  | Ok r -> await r

let shutdown t =
  let was_running =
    with_lock t (fun () ->
        let w = t.running in
        t.running <- false;
        Condition.broadcast t.nonempty;
        w)
  in
  if was_running then begin
    (* Wake any step blocked mid-batch; queued requests are failed by
       the batcher's shutdown sweep. *)
    Cancel.cancel t.cancel ~reason:"serving: shut down";
    Option.iter Thread.join t.batcher
  end

let stats t =
  with_lock t (fun () ->
      {
        submitted = t.n_submitted;
        served = t.n_served;
        rejected = t.n_rejected;
        failed = t.n_failed;
        batches = t.n_batches;
        max_batch = t.n_max_batch;
        queue_depth = Queue.length t.queue;
      })

let session t = t.session
