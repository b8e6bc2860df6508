open Octf_tensor

(* All failures surface as {!Step_failure.Error}; [invalid] marks
   graph-structure problems found at compile or delivery time. *)
let invalid msg = Step_failure.error (Step_failure.Invalid_graph msg)

(* ------------------------------------------------------------------ *)
(* Static structure: frames                                            *)
(* ------------------------------------------------------------------ *)

type static_frame = {
  sf_id : int;  (* 0 for the root frame *)
  sf_name : string;  (* "" for the root frame *)
  sf_parent : static_frame option;
  sf_depth : int;
}

let root_frame = { sf_id = 0; sf_name = ""; sf_parent = None; sf_depth = 0 }

let rec frame_is_ancestor ~anc f =
  anc == f
  || match f.sf_parent with None -> false | Some p -> frame_is_ancestor ~anc p

(* How a node's values move between frames and iterations, decided once
   at compile time: an Enter runs in the frame it enters, an Exit's
   values land in the enclosing iteration, a NextIteration's in the next
   one, a Merge fires on its first live input, and a Send runs even on
   a dead input so its peer learns of the deadness. *)
type kind = Op | Send | Merge | Enter | Exit | Next_iteration

let kind_of_op = function
  | "Send" -> Send
  | "Merge" -> Merge
  | "Enter" -> Enter
  | "Exit" -> Exit
  | "NextIteration" -> Next_iteration
  | _ -> Op

let is_const_enter_node (n : Node.t) =
  n.Node.op_type = "Enter"
  && Option.value ~default:false (Attr.find_bool n.Node.attrs "is_constant")

let never_invariant op =
  match op with
  | "Merge" | "Switch" | "Exit" | "NextIteration" | "Enter" | "LoopCond" ->
      true
  | _ -> false

let blocking_op = function
  | "Recv" | "Dequeue" | "DequeueMany" | "Enqueue" | "EnqueueMany" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Plans: compile once, execute per step                               *)
(* ------------------------------------------------------------------ *)

(* A compiled subgraph. Nodes are numbered densely and every per-node
   table is an array indexed by that number. *)
type plan = {
  graph : Graph.t;
  nodes : Node.t array;
  dense : (int, int) Hashtbl.t;  (* node id -> dense id *)
  kind : kind array;
  cls : Scheduler.cls array;
  frame : int array;  (* static frame id; an Enter's is the frame it enters *)
  (* An invariant node executes once per frame instance and its outputs
     are visible in every iteration: constant Enters, and any stateless
     in-frame node all of whose inputs are invariant. *)
  invariant : bool array;
  fed : bool array;  (* fed nodes: inputs unwired, never executed *)
  num_outputs : int array;
  inputs : (int * int) array array;  (* (src, out) per slot; [||] if fed *)
  out_data : (int * int) array array;  (* (out, dst) per data edge *)
  out_control : int array array;
  in_count : int array;  (* arrivals needed (invariant sources excluded) *)
  inv_srcs : int array array;  (* invariant data and control sources *)
  (* Memory planning statics: *)
  fresh : bool array;  (* outputs are planner-owned fresh buffers *)
  refcounts : int array array;  (* data consumers per (node, out) *)
  poolable : bool array array;  (* no consumer retains the endpoint *)
  aliases : (int * int) list array;  (* declared May_alias pairs *)
  kernels : Kernel.t option array;  (* resolved on first use *)
  scheduler : Scheduler.policy;
  planning : bool;  (* memory planning for this plan's steps *)
}

let prepare ~scheduler ~memory_planning ~graph ~nodes ~fed_ids =
  Builtin_kernels.ensure ();
  (* Dense ids follow the id table's own iteration order. That order
     fixes the order in which ready nodes are queued, and with it which
     of two unordered stateful ops runs first and which in-place grants
     are possible: changing it changes observable results. *)
  let index = Hashtbl.create (List.length nodes * 2) in
  List.iter (fun id -> Hashtbl.replace index id 0) nodes;
  let ids = Array.of_seq (Hashtbl.to_seq_keys index) in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let nodes = Array.map (Graph.get graph) ids in
  let count = Array.length nodes in
  let dense id = Hashtbl.find_opt index id in
  let fed = Array.make count false in
  List.iter
    (fun id -> Option.iter (fun i -> fed.(i) <- true) (dense id))
    fed_ids;
  let kind = Array.map (fun (n : Node.t) -> kind_of_op n.Node.op_type) nodes in
  let invariant = Array.map is_const_enter_node nodes in
  let sframe = Array.make count root_frame in
  let frames = Hashtbl.create 8 in
  Hashtbl.replace frames "" root_frame;
  let out_frame i =
    if kind.(i) <> Exit then sframe.(i)
    else
      match sframe.(i).sf_parent with
      | Some p -> p
      | None ->
          raise (invalid ("Exit outside a frame: " ^ nodes.(i).Node.name))
  in
  let sources (n : Node.t) =
    Array.fold_right
      (fun (e : Node.endpoint) acc -> e.node_id :: acc)
      n.Node.inputs n.Node.control_inputs
  in
  (* One topological pass (loop back edges ignored) assigns frames and
     invariant-ness. *)
  List.iter
    (fun (n : Node.t) ->
      match dense n.Node.id with
      | None -> ()
      | Some i ->
          let srcs = sources n in
          let input_frames =
            List.filter_map (fun s -> Option.map out_frame (dense s)) srcs
          in
          let deepest =
            List.fold_left
              (fun acc f -> if f.sf_depth > acc.sf_depth then f else acc)
              root_frame input_frames
          in
          List.iter
            (fun f ->
              if not (frame_is_ancestor ~anc:f deepest) then
                raise
                  (invalid
                     (Printf.sprintf
                        "node %s mixes values from unrelated frames %S and \
                         %S (pass loop-external values via ~invariants)"
                        n.Node.name f.sf_name deepest.sf_name)))
            input_frames;
          sframe.(i) <-
            (if kind.(i) <> Enter then deepest
             else
               let name = Node.attr_string n "frame_name" in
               match Hashtbl.find_opt frames name with
               | Some f -> f
               | None ->
                   let f =
                     {
                       sf_id = Hashtbl.length frames;
                       sf_name = name;
                       sf_parent = Some deepest;
                       sf_depth = deepest.sf_depth + 1;
                     }
                   in
                   Hashtbl.replace frames name f;
                   f);
          (* Invariant propagation: inside a frame, a stateless node
             whose inputs are all invariant is itself invariant. *)
          if
            sframe.(i) != root_frame
            && (not (never_invariant n.Node.op_type))
            && (not (Node.is_stateful n))
            && srcs <> []
            && List.for_all
                 (fun s ->
                   match dense s with Some j -> invariant.(j) | None -> false)
                 srcs
          then invariant.(i) <- true)
    (Graph.topological_order graph);
  (* An edge must stay within one frame unless it feeds an Enter or
     comes from an invariant node (which lives in the consumer's frame).
     Producer-side Exit adjustments keep those edges same-frame from the
     value's point of view. *)
  let check_edge_frames src dst =
    let sf =
      match (kind.(src), sframe.(src).sf_parent) with
      | Exit, Some p -> p
      | _ -> sframe.(src)
    in
    let df = sframe.(dst) in
    if sf != df && kind.(dst) <> Enter && not invariant.(src) then
      raise
        (invalid
           (Printf.sprintf
              "edge %s -> %s crosses loop frames (%S -> %S); pass \
               loop-external values through ~invariants (constants created \
               inside a loop body must enter its frame)"
              nodes.(src).Node.name nodes.(dst).Node.name sf.sf_name
              df.sf_name))
  in
  (* Wire edges and arrival counts, restricted to the executed set. *)
  let out_data = Array.make count [] and out_control = Array.make count [] in
  let in_count = Array.make count 0 and inv_srcs = Array.make count [] in
  let arrive_from src dst =
    check_edge_frames src dst;
    if invariant.(src) then inv_srcs.(dst) <- src :: inv_srcs.(dst)
    else in_count.(dst) <- in_count.(dst) + 1
  in
  let inputs =
    Array.mapi
      (fun i (n : Node.t) ->
        if fed.(i) then [||]
        else begin
          let wired =
            Array.map
              (fun (e : Node.endpoint) ->
                match dense e.node_id with
                | Some src ->
                    arrive_from src i;
                    out_data.(src) <- (e.index, i) :: out_data.(src);
                    (src, e.index)
                | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Executor: input %s of %s is outside the executed \
                          subgraph"
                         (Graph.get graph e.node_id).Node.name n.Node.name))
              n.Node.inputs
          in
          List.iter
            (fun c ->
              Option.iter
                (fun src ->
                  arrive_from src i;
                  out_control.(src) <- i :: out_control.(src))
                (dense c))
            n.Node.control_inputs;
          wired
        end)
      nodes
  in
  let num_outputs = Array.map (fun n -> max 1 (Node.num_outputs n)) nodes in
  let out_data = Array.map Array.of_list out_data in
  let fresh =
    Array.mapi
      (fun i (n : Node.t) ->
        (not fed.(i)) && (not invariant.(i))
        && Mem_plan.fresh_output_op n.Node.op_type)
      nodes
  in
  let refcounts =
    Array.mapi
      (fun i edges ->
        let rc = Array.make num_outputs.(i) 0 in
        Array.iter
          (fun (out, _) ->
            if out < Array.length rc then rc.(out) <- rc.(out) + 1)
          edges;
        rc)
      out_data
  in
  let poolable =
    Array.mapi
      (fun i edges ->
        let p = Array.make num_outputs.(i) fresh.(i) in
        Array.iter
          (fun (out, dst) ->
            if
              out < Array.length p
              && Mem_plan.retains_input nodes.(dst).Node.op_type
            then p.(out) <- false)
          edges;
        p)
      out_data
  in
  {
    graph;
    nodes;
    dense = index;
    kind;
    cls =
      Array.map
        (fun (n : Node.t) ->
          if n.Node.op_type = "Recv" then Scheduler.Recv
          else if blocking_op n.Node.op_type then Scheduler.Blocking
          else Scheduler.Normal)
        nodes;
    frame = Array.map (fun f -> f.sf_id) sframe;
    invariant;
    fed;
    num_outputs;
    inputs;
    out_data;
    out_control = Array.map Array.of_list out_control;
    in_count;
    inv_srcs = Array.map Array.of_list inv_srcs;
    fresh;
    refcounts;
    poolable;
    aliases =
      Array.map
        (fun (n : Node.t) -> Kernel.aliases ~op_type:n.Node.op_type)
        nodes;
    kernels = Array.make count None;
    scheduler;
    planning = memory_planning;
  }

let m_kernels =
  Metrics.Counter.v ~help:"Kernels dispatched by the executor"
    "octf_executor_kernels_total"

let m_op_seconds op =
  Metrics.Counter.v ~help:"Kernel wall-clock seconds by op type"
    ~labels:[ ("op_type", op) ]
    "octf_executor_op_seconds_total"

let m_lane_busy lane =
  Metrics.Counter.v ~help:"Kernel wall-clock seconds by execution lane"
    ~labels:[ ("lane", string_of_int lane) ]
    "octf_executor_lane_busy_seconds_total"

let m_intra_op_parallel =
  Metrics.Counter.v ~help:"Kernel loops that sharded across the domain pool"
    "octf_intra_op_parallel_total"

let m_intra_op_shards =
  Metrics.Counter.v ~help:"Intra-op shards dispatched to the domain pool"
    "octf_intra_op_shards_total"

(* Every sharded parallel_for in the process feeds the intra-op counters,
   whichever kernel (or library caller) ran it. *)
let () =
  Octf_tensor.Parallel.set_shard_hook (fun shards ->
      Metrics.Counter.incr m_intra_op_parallel;
      Metrics.Counter.add m_intra_op_shards shards)

(* Wrap one kernel invocation. The dispatch counter is always bumped;
   the gettimeofday pair (and the derived per-op-type / per-lane series
   and tracer event) is gated on an active tracer or the process-wide
   [Metrics.kernel_timing] flag, so the null-op dispatch benchmark pays
   one counter increment and nothing else. [bytes_of] extracts the
   payload size from the kernel's result (Recv'd tensor bytes). *)
let trace tracer (n : Node.t) ~step_id ?(bytes_of = fun _ -> 0)
    ?(peak_of = fun _ -> 0) f =
  Metrics.Counter.incr m_kernels;
  if Option.is_none tracer && not (Metrics.kernel_timing ()) then f ()
  else begin
    (* The sharder's per-domain dispatch counter, sampled around the
       kernel, attributes intra-op shard counts to this node: sharding is
       always initiated on the domain the kernel runs on. *)
    let shards_before = Octf_tensor.Parallel.domain_shards () in
    let start = Unix.gettimeofday () in
    let result = f () in
    let stop = Unix.gettimeofday () in
    let duration = stop -. start in
    let shards = Octf_tensor.Parallel.domain_shards () - shards_before in
    let lane = (Domain.self () :> int) in
    Metrics.Counter.add_f (m_op_seconds n.Node.op_type) duration;
    Metrics.Counter.add_f (m_lane_busy lane) duration;
    (match tracer with
    | None -> ()
    | Some t ->
        Tracer.record t
          {
            Tracer.name = n.Node.name;
            op_type = n.Node.op_type;
            device =
              (match n.Node.assigned_device with
              | Some d -> Device.to_string d
              | None -> "/device:CPU:0");
            lane;
            start;
            duration;
            step_id;
            bytes = bytes_of result;
            shards;
            peak_bytes = peak_of result;
            fused =
              Option.value ~default:0
                (Attr.find_int n.Node.attrs "fused_nodes");
          });
    result
  end

let recv_rendezvous_key ~step_id (n : Node.t) =
  Rendezvous.step_key ~step_id
    ~send_device:(Node.attr_string n "send_device")
    ~recv_device:(Node.attr_string n "recv_device")
    ~tensor_name:(Node.attr_string n "tensor_name")

(* ------------------------------------------------------------------ *)
(* Per-step state: frame instances as chains of iterations             *)
(* ------------------------------------------------------------------ *)

(* One iteration of one frame instance. Every table is indexed by dense
   node id, so a plan without control flow runs in exactly one of
   these. Values live in the iteration their consumers read them in: a
   value crossing into another iteration (through Enter, Exit or
   NextIteration) is copied into it on delivery. *)
type iteration = {
  index : int;
  parent : iteration option;  (* where this frame instance was entered *)
  first : iteration;  (* iteration 0 of the instance: invariants live there *)
  inv_done : bool array;  (* per instance: invariant nodes finished *)
  values : Value.t array array;  (* outputs per node; [||] until produced *)
  pending : int array;  (* arrivals still missing *)
  dead_control : bool array;  (* a dead control token arrived *)
  scheduled : bool array;
  (* Memory planning: unfinished data readers of each planner-owned
     endpoint, armed ([||] before) when its producer completes here.
     Readers in another iteration decrement nothing, which leaks until
     step end but never frees a value that is still needed. *)
  rc : int array array;
  mutable next : iteration option;
  mutable children : (int * iteration) list;  (* frame id -> instance *)
}

let new_instance p ~parent =
  let n = Array.length p.nodes in
  let rec it =
    {
      index = 0;
      parent;
      first = it;
      inv_done = Array.make n false;
      values = Array.make n [||];
      pending = Array.copy p.in_count;
      dead_control = Array.make n false;
      scheduled = Array.make n false;
      rc = Array.make n [||];
      next = None;
      children = [];
    }
  in
  it

let next_iteration p it =
  match it.next with
  | Some next -> next
  | None ->
      let n = Array.length p.nodes in
      let next =
        {
          it with
          index = it.index + 1;
          values = Array.make n [||];
          pending = Array.copy p.in_count;
          dead_control = Array.make n false;
          scheduled = Array.make n false;
          rc = Array.make n [||];
          next = None;
          children = [];
        }
      in
      it.next <- Some next;
      next

let child_instance p it frame =
  match List.assoc_opt frame it.children with
  | Some child -> child
  | None ->
      let child = new_instance p ~parent:(Some it) in
      it.children <- (frame, child) :: it.children;
      child

let rec iter_iterations f it =
  f it;
  Option.iter (iter_iterations f) it.next

(* Store one value delivered from another iteration. *)
let store p it src out v =
  if Array.length it.values.(src) = 0 then
    it.values.(src) <- Array.make p.num_outputs.(src) Value.Dead;
  if out < Array.length it.values.(src) then it.values.(src).(out) <- v

type step = {
  plan : plan;
  planning : bool;  (* lifetime-driven drops / grants enabled this step *)
  pinned : bool array array;  (* fetched endpoints: never dropped or granted *)
  resources : Resource_manager.t;
  rendezvous : Rendezvous.t option;
  tracer : Tracer.t option;
  cancel : Cancel.t option;
  seed : int;
  step_id : int;
  var_snapshot : (string -> Octf_tensor.Tensor.t option) option;
  mutable live : int;  (* planner-tracked live bytes, this step *)
  (* Set right after creation (the scheduler's callbacks close over the
     step, so the two are built in sequence). *)
  mutable sched : (int * iteration) Scheduler.t option;
}

let live_add st bytes =
  st.live <- st.live + bytes;
  Mem_plan.live_add bytes

let live_sub st bytes =
  st.live <- st.live - bytes;
  Mem_plan.live_sub bytes

let pinned st src out =
  out < Array.length st.pinned.(src) && st.pinned.(src).(out)

(* Drop a planner-owned endpoint all of whose readers have finished:
   tombstone the slot (readers still staged hold their own gathered
   references; control consumers got their tokens; fetches are pinned),
   un-count its bytes and recycle the float buffer unless some consumer
   retains it. *)
let drop st it src out =
  let vs = it.values.(src) in
  if out < Array.length vs && not (pinned st src out) then begin
    (match vs.(out) with
    | Value.Tensor t ->
        live_sub st (Tensor.byte_size t);
        if st.plan.poolable.(src).(out) && Dtype.is_floating (Tensor.dtype t)
        then Buffer_pool.release_float (Tensor.float_buffer t)
    | _ -> ());
    vs.(out) <- Value.Dead
  end

let schedule st i it =
  it.scheduled.(i) <- true;
  match st.sched with Some s -> Scheduler.add s (i, it) | None -> assert false

(* Readiness. Per-iteration nodes fire once per iteration, invariant
   nodes once per frame instance in its first iteration. A Merge fires
   as soon as a live input arrives (delivery zeroes its count) and does
   not wait for invariants. *)
let rec all_done inv_done srcs k =
  k >= Array.length srcs
  || (inv_done.(srcs.(k)) && all_done inv_done srcs (k + 1))

let check_ready st i it =
  let p = st.plan in
  let it = if p.invariant.(i) then it.first else it in
  if
    (not it.scheduled.(i))
    && it.pending.(i) <= 0
    && (p.kind.(i) = Merge || all_done it.inv_done p.inv_srcs.(i) 0)
  then schedule st i it

(* Deliver one value along an edge from [src] (completed in [it]) to
   [dst]; [out] < 0 marks a control token. The producer's kind picks
   the iteration the value lands in, and an Enter consumer moves it
   into the frame instance it enters. *)
let deliver st ~src ~out v it dst =
  let p = st.plan in
  let target =
    match p.kind.(src) with
    | Exit -> (
        match it.parent with
        | Some parent -> parent
        | None ->
            raise (invalid ("Exit in root frame: " ^ p.nodes.(src).Node.name)))
    | Next_iteration -> next_iteration p it
    | _ -> it
  in
  let target =
    if p.kind.(dst) = Enter then child_instance p target p.frame.(dst)
    else target
  in
  if out >= 0 then begin
    if target != it then store p target src out v;
    if p.kind.(dst) = Merge && not (Value.is_dead v) then
      target.pending.(dst) <- 0
  end
  else if Value.is_dead v then target.dead_control.(dst) <- true;
  target.pending.(dst) <- target.pending.(dst) - 1;
  check_ready st dst target

let control_token = Value.Tensor (Tensor.scalar_i 0)

let complete st i it (outputs : Value.t array) =
  let p = st.plan in
  it.values.(i) <- outputs;
  if p.invariant.(i) then begin
    (* Wake consumers: invariant ones in the first iteration, the others
       in every iteration so far. *)
    it.inv_done.(i) <- true;
    let wake dst =
      if p.invariant.(dst) then check_ready st dst it
      else iter_iterations (check_ready st dst) it
    in
    Array.iter (fun (_, dst) -> wake dst) p.out_data.(i);
    Array.iter wake p.out_control.(i)
  end
  else begin
    (* Count fresh outputs' bytes (always, so peaks compare with planning
       off), arm their reader counts, and drop those nobody reads. *)
    if p.fresh.(i) then begin
      if st.planning then it.rc.(i) <- Array.copy p.refcounts.(i);
      let rc = it.rc.(i) in
      Array.iteri
        (fun out v ->
          match v with
          | Value.Tensor t ->
              live_add st (Tensor.byte_size t);
              if out < Array.length rc && rc.(out) = 0 then drop st it i out
          | _ -> ())
        outputs
    end;
    (* A live Exit value belongs to the enclosing iteration too, so that
       fetches (which read the root iteration) see loop results even
       when the Exit has no consumer edge. *)
    (match (p.kind.(i), it.parent) with
    | Exit, Some parent ->
        Array.iteri
          (fun out v -> if not (Value.is_dead v) then store p parent i out v)
          outputs
    | _ -> ());
    (* Dead NextIteration and Exit values are discarded, which is what
       terminates a loop. *)
    let discards_dead =
      match p.kind.(i) with Next_iteration | Exit -> true | _ -> false
    in
    Array.iter
      (fun (out, dst) ->
        let v =
          if out < Array.length outputs then outputs.(out) else Value.Dead
        in
        if not (discards_dead && Value.is_dead v) then
          deliver st ~src:i ~out v it dst)
      p.out_data.(i);
    let dead =
      Array.length outputs > 0 && Array.for_all Value.is_dead outputs
    in
    if not (discards_dead && dead) then begin
      let token = if dead then Value.Dead else control_token in
      Array.iter (deliver st ~src:i ~out:(-1) token it) p.out_control.(i)
    end;
    (* This node has finished reading: release its claim on each input
       endpoint armed in this iteration; the last reader out drops it. *)
    if st.planning then
      Array.iter
        (fun (src, out) ->
          let rc = it.rc.(src) in
          if out < Array.length rc && rc.(out) > 0 then begin
            rc.(out) <- rc.(out) - 1;
            if rc.(out) = 0 then drop st it src out
          end)
        p.inputs.(i)
  end

let resolve_kernel p i =
  match p.kernels.(i) with
  | Some k -> k
  | None ->
      let n = p.nodes.(i) in
      let device_type =
        match n.Node.assigned_device with
        | Some d -> d.Device.dev_type
        | None -> Device.CPU
      in
      let k =
        match Kernel.lookup ~op_type:n.Node.op_type ~device:device_type with
        | Some k -> k
        | None -> (
            match Kernel.lookup ~op_type:n.Node.op_type ~device:Device.CPU with
            | Some k -> k
            | None ->
                raise
                  (Step_failure.error ~node:n.Node.name
                     (Step_failure.Invalid_graph
                        (Printf.sprintf "no kernel for op %s (node %s)"
                           n.Node.op_type n.Node.name))))
      in
      p.kernels.(i) <- Some k;
      k

(* Classify an arbitrary kernel exception into a structured failure,
   filling in node/device context when the original carries none. *)
let failure_of_exn ~node ~device e =
  match e with
  | Step_failure.Error f ->
      {
        f with
        Step_failure.node =
          (if f.Step_failure.node = None then Some node
           else f.Step_failure.node);
        device =
          (if f.Step_failure.device = None then device
           else f.Step_failure.device);
      }
  | Fault_injector.Injected msg ->
      Step_failure.v ~node ?device (Step_failure.Fault_injected msg)
  | Rendezvous.Aborted reason ->
      Step_failure.v ~node ?device (Step_failure.Rendezvous_aborted reason)
  | e ->
      Step_failure.v ~node ?device
        (Step_failure.Kernel_failed (Printexc.to_string e))

(* Run [kernel ctx], worker-domain-safe: failures are captured and
   re-raised by the returned continuation on the coordinating thread
   (aborting the rendezvous and cancelling the step token first, so
   peer partitions — including threads parked in queue waits — unblock
   even while the coordinator is busy elsewhere). Wrap in a thunk when
   building a [Scheduler.Offload] — applying it runs the kernel. *)
let offload_kernel ~tracer ~rendezvous ~cancel ~step_id
    ~live_of (n : Node.t) kernel ctx ~finish =
  let bytes_of outputs =
    match n.Node.op_type with
    | "Recv" ->
        Array.fold_left (fun acc v -> acc + Value.byte_size v) 0 outputs
    | _ -> 0
  in
  (* Per-node memory watermark: live planner-tracked bytes sampled when
     the kernel finishes, plus this node's own (not-yet-counted)
     outputs. The racy read of the live counter is fine — this feeds
     traces, not the planner. *)
  let peak_of outputs =
    live_of ()
    + Array.fold_left (fun acc v -> acc + Value.byte_size v) 0 outputs
  in
  match
    trace tracer n ~step_id ~bytes_of ~peak_of (fun () ->
        Cancel.check_opt cancel;
        Fault_injector.kernel_hook n ~step_id;
        kernel ctx)
  with
  | outputs -> fun () -> finish outputs
  | exception e ->
      let device = Option.map Device.to_string n.Node.assigned_device in
      let f = failure_of_exn ~node:n.Node.name ~device e in
      let msg = Step_failure.to_string f in
      (* A secondary failure (the peer already aborted us, or the step
         token already fired) needs no further propagation. *)
      if not (Step_failure.is_secondary f.Step_failure.cause) then begin
        Option.iter (fun r -> Rendezvous.abort r ~reason:msg) rendezvous;
        Option.iter (fun c -> Cancel.cancel c ~reason:msg) cancel
      end;
      fun () -> raise (Step_failure.Error f)


(* In-place grants: a declared May_alias pair is granted when the input
   endpoint is armed in this iteration with this node as its only
   remaining reader, poolable (no retaining consumer), not fetched and
   a float tensor. Staging and completion both run on the coordinating
   thread, so a count of 1 here means every other reader's kernel has
   fully finished. Ownership moves to the kernel's output: the endpoint
   is forgotten without recycling its buffer. *)
let grants st i it inputs =
  let p = st.plan in
  match p.aliases.(i) with
  | [] -> []
  | _ when not st.planning -> []
  | decls ->
      let used_in = ref [] and used_out = ref [] in
      List.filter
        (fun (slot, o) ->
          (not (List.mem slot !used_in))
          && (not (List.mem o !used_out))
          && slot < Array.length p.inputs.(i)
          &&
          let src, out = p.inputs.(i).(slot) in
          let rc = it.rc.(src) in
          let ok =
            out < Array.length rc
            && rc.(out) = 1
            && p.poolable.(src).(out)
            && (not (pinned st src out))
            &&
            match inputs.(slot) with
            | Value.Tensor t -> Dtype.is_floating (Tensor.dtype t)
            | _ -> false
          in
          if ok then begin
            rc.(out) <- 0;
            it.values.(src).(out) <- Value.Dead;
            live_sub st (Value.byte_size inputs.(slot));
            Mem_plan.count_grant ();
            used_in := slot :: !used_in;
            used_out := o :: !used_out
          end;
          ok)
        decls

(* Stage one node on the coordinating thread: gather inputs (invariant
   ones from the instance's first iteration), decide dead propagation,
   build the kernel context. Everything the returned [Offload] thunk
   touches is either private to it or mutex-protected (resources,
   queues, rendezvous, tracer), so it may run on a worker domain. *)
let stage st (i, it) =
  let p = st.plan in
  let n = p.nodes.(i) in
  let inputs =
    Array.map
      (fun (src, out) ->
        let vs = (if p.invariant.(src) then it.first else it).values.(src) in
        if out < Array.length vs then vs.(out) else Value.Dead)
      p.inputs.(i)
  in
  let dead = it.dead_control.(i) || Array.exists Value.is_dead inputs in
  if dead && (match p.kind.(i) with Merge | Send -> false | _ -> true) then
    Scheduler.Finish
      (fun () -> complete st i it (Array.make p.num_outputs.(i) Value.Dead))
  else begin
    let rng =
      Rng.create
        (st.seed
        + (st.step_id * 1_000_003)
        + (n.Node.id * 7_919)
        + (it.index * 104_729))
    in
    let ctx =
      {
        Kernel.node = n;
        inputs;
        resources = st.resources;
        rendezvous = st.rendezvous;
        rng;
        step_id = st.step_id;
        cancel = st.cancel;
        grants = grants st i it inputs;
        var_snapshot = st.var_snapshot;
      }
    in
    let kernel = resolve_kernel p i in
    Scheduler.Offload
      (fun () ->
        offload_kernel ~tracer:st.tracer ~rendezvous:st.rendezvous
          ~cancel:st.cancel ~step_id:st.step_id
          ~live_of:(fun () -> st.live)
          n kernel ctx
          ~finish:(complete st i it))
  end

(* Feeds are per endpoint: each fed node completes in the root
   iteration with exactly the values fed to its outputs. Reading an
   output left unfed, by a consumer or a fetch, is an error. *)
let seed_feeds st root ~feeds ~fetches =
  let p = st.plan in
  Array.iteri
    (fun i fed ->
      if fed then begin
        let n = p.nodes.(i) in
        let outputs = Array.make p.num_outputs.(i) Value.Dead in
        let given = Array.make p.num_outputs.(i) false in
        List.iter
          (fun ((e : Node.endpoint), v) ->
            if e.node_id = n.Node.id && e.index < Array.length outputs
            then begin
              outputs.(e.index) <- v;
              given.(e.index) <- true
            end)
          feeds;
        if not (Array.mem true given) then
          raise (invalid ("missing feed for node " ^ n.Node.name));
        let read out =
          Array.exists (fun (o, _) -> o = out) p.out_data.(i)
          || List.exists
               (fun (e : Node.endpoint) ->
                 e.node_id = n.Node.id && e.index = out)
               fetches
        in
        Array.iteri
          (fun out given ->
            if (not given) && read out then
              raise
                (invalid
                   (Printf.sprintf "%s:%d is read but was not fed (node %s \
                                    is fed)"
                      n.Node.name out n.Node.name)))
          given;
        complete st i root outputs
      end)
    p.fed

let fetch p root (e : Node.endpoint) =
  let vs =
    match Hashtbl.find_opt p.dense e.node_id with
    | Some i -> root.values.(i)
    | None -> [||]
  in
  if e.index < Array.length vs && not (Value.is_dead vs.(e.index)) then
    vs.(e.index)
  else
    raise
      (Step_failure.error
         (Step_failure.Fetch_failed
            (Printf.sprintf
               "fetch %s:%d was not produced (dead value or incomplete \
                subgraph?)"
               (Graph.get p.graph e.node_id).Node.name e.index)))

let execute p ~feeds ~fetches ~resources ?rendezvous ?tracer ?cancel
    ?(seed = 0) ?(step_id = 0) ?var_snapshot () =
  let pinned = Array.make (Array.length p.nodes) [||] in
  List.iter
    (fun (e : Node.endpoint) ->
      match Hashtbl.find_opt p.dense e.node_id with
      | Some i when e.index < p.num_outputs.(i) ->
          if Array.length pinned.(i) = 0 then
            pinned.(i) <- Array.make p.num_outputs.(i) false;
          pinned.(i).(e.index) <- true
      | _ -> ())
    fetches;
  let st =
    {
      plan = p;
      planning = p.planning;
      pinned;
      resources;
      rendezvous;
      tracer;
      cancel;
      seed;
      step_id;
      var_snapshot;
      live = 0;
      sched = None;
    }
  in
  let ops =
    {
      Scheduler.classify = (fun (i, _) -> p.cls.(i));
      stage = stage st;
      run_blocking =
        (fun task ->
          match stage st task with
          | Scheduler.Finish k -> k ()
          | Scheduler.Offload run -> (run ()) ());
      poll_recv =
        (fun (i, it) ->
          let n = p.nodes.(i) in
          match rendezvous with
          | None -> None
          | Some r -> (
              match
                Rendezvous.try_recv r ~key:(recv_rendezvous_key ~step_id n)
              with
              | Some v ->
                  Some
                    (fun () ->
                      trace tracer n ~step_id
                        ~bytes_of:(fun () -> Value.byte_size v)
                        (fun () -> ());
                      complete st i it [| v |])
              | None -> None));
      rendezvous;
      cancel;
    }
  in
  let sched = Scheduler.create p.scheduler ops in
  st.sched <- Some sched;
  let root = new_instance p ~parent:None in
  (* Whatever the step's fate, the process-wide gauges must not keep
     counting this step's bytes, and the pool counters get synced. *)
  Fun.protect
    ~finally:(fun () ->
      Mem_plan.live_sub st.live;
      st.live <- 0;
      Mem_plan.sync_pool_metrics ())
    (fun () ->
      Array.iteri
        (fun i count ->
          if
            count = 0
            && (not p.fed.(i))
            && (not p.invariant.(i))
            && p.inv_srcs.(i) = [||]
          then schedule st i root)
        p.in_count;
      seed_feeds st root ~feeds ~fetches;
      Scheduler.drive sched;
      List.map (fetch p root) fetches)
