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
  | "Dequeue" | "DequeueMany" | "Enqueue" | "EnqueueMany" -> true
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
  kernels : Kernel.t option array;  (* instantiated once, by [prepare] *)
  random : bool array;  (* the kernel draws from a per-node stream *)
  recv_suffix : string array;  (* a Recv's rendezvous key suffix; "" else *)
  (* What a timed kernel reports, fixed per node: *)
  device : string array;  (* the trace's device string *)
  fused : int array;  (* graph nodes a fused kernel stands in for *)
  op_seconds : Metrics.Counter.m array;  (* its op type's seconds series *)
  scheduler : Scheduler.policy;
  planning : bool;  (* memory planning for this plan's steps *)
}

(* A node's kernel for its assigned device, else the CPU's. Per-node
   set-up (an elementwise program) happens here, once per plan node; a
   node whose set-up fails gets a kernel that raises the failure when
   the node runs, as a missing kernel does. *)
let instantiate (n : Node.t) =
  let device =
    match n.Node.assigned_device with
    | Some d -> d.Device.dev_type
    | None -> Device.CPU
  in
  try
    match Kernel.instantiate ~device n with
    | Some k -> Some k
    | None -> Kernel.instantiate ~device:Device.CPU n
  with e -> Some (fun _ -> raise e)

let m_op_seconds op =
  Metrics.Counter.v ~help:"Kernel wall-clock seconds by op type"
    ~labels:[ ("op_type", op) ]
    "octf_executor_op_seconds_total"

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
    kernels = Array.map instantiate nodes;
    random =
      Array.map (fun (n : Node.t) -> Kernel.random ~op_type:n.Node.op_type) nodes;
    recv_suffix =
      Array.map
        (fun (n : Node.t) ->
          if n.Node.op_type = "Recv" then Rendezvous.node_suffix n else "")
        nodes;
    device =
      Array.map
        (fun (n : Node.t) ->
          match n.Node.assigned_device with
          | Some d -> Device.to_string d
          | None -> "/device:CPU:0")
        nodes;
    fused =
      Array.map
        (fun (n : Node.t) ->
          Option.value ~default:0 (Attr.find_int n.Node.attrs "fused_nodes"))
        nodes;
    op_seconds =
      (let by_type = Hashtbl.create 16 in
       Array.map
         (fun (n : Node.t) ->
           let op = n.Node.op_type in
           match Hashtbl.find_opt by_type op with
           | Some m -> m
           | None ->
               let m = m_op_seconds op in
               Hashtbl.replace by_type op m;
               m)
         nodes);
    scheduler;
    planning = memory_planning;
  }

let m_kernels =
  Metrics.Counter.v ~help:"Kernels dispatched by the executor"
    "octf_executor_kernels_total"

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

(* Store one value delivered from another iteration. *)
let store p it src out v =
  if Array.length it.values.(src) = 0 then
    it.values.(src) <- Array.make p.num_outputs.(src) Value.Dead;
  if out < Array.length it.values.(src) then it.values.(src).(out) <- v

(* One scheduled node in one iteration: what its kernel reads, staged on
   the coordinating thread, and what it produced or raised, stored by
   whichever thread ran it. Both are cleared when the result is
   applied. *)
type task = {
  i : int;
  it : iteration;
  mutable inputs : Value.t array;
  mutable grants : (int * int) list;
  mutable rng : Rng.t option;
  mutable outputs : Value.t array;
  mutable failure : exn option;
}

type step = {
  plan : plan;
  planning : bool;  (* lifetime-driven drops / grants enabled this step *)
  pinned : bool array array;  (* fetched endpoints: never dropped or granted *)
  resources : Resource_manager.t;
  rendezvous : Rendezvous.t option;
  tracer : Tracer.t option;
  timed : bool;  (* kernels are timed: a tracer, or kernel timing is on *)
  cancel : Cancel.t option;
  seed : int;
  step_id : int;
  var_snapshot : (string -> Octf_tensor.Tensor.t option) option;
  (* Counted on the coordinating thread and published at the step's
     end: the per-node path touches no metric. *)
  mutable live : int;  (* planner-tracked live bytes, this step *)
  mutable peak : int;  (* highest process-wide live count seen *)
  mutable dispatched : int;  (* kernels run *)
  mutable granted : int;  (* in-place grants *)
  (* Set right after creation (the scheduler's callbacks close over the
     step, so the two are built in sequence). *)
  mutable sched : task Scheduler.t option;
}

let live_add st bytes =
  if bytes <> 0 then begin
    st.live <- st.live + bytes;
    let now = Mem_plan.live_add bytes in
    if now > st.peak then st.peak <- now
  end

let live_sub st bytes =
  if bytes <> 0 then begin
    st.live <- st.live - bytes;
    Mem_plan.live_sub bytes
  end

let pinned st src out =
  out < Array.length st.pinned.(src) && st.pinned.(src).(out)

(* Drop a planner-owned endpoint all of whose readers have finished:
   tombstone the slot (readers still staged hold their own gathered
   references; control consumers got their tokens; fetches are pinned),
   un-count its bytes and recycle its float or uint8 buffer unless some
   consumer retains it. *)
let drop st it src out =
  let vs = it.values.(src) in
  if out < Array.length vs && not (pinned st src out) then begin
    (match vs.(out) with
    | Value.Tensor t ->
        live_sub st (Tensor.byte_size t);
        if st.plan.poolable.(src).(out) then begin
          match Tensor.dtype t with
          | Dtype.F32 | Dtype.F64 ->
              Buffer_pool.release_float (Tensor.float_buffer t)
          | Dtype.U8 -> Buffer_pool.release_bytes (Tensor.byte_buffer t)
          | Dtype.I32 | Dtype.I64 | Dtype.Bool | Dtype.String -> ()
        end
    | _ -> ());
    vs.(out) <- Value.Dead
  end

let schedule st i it =
  it.scheduled.(i) <- true;
  match st.sched with
  | Some s ->
      Scheduler.add s
        { i; it; inputs = [||]; grants = []; rng = None; outputs = [||];
          failure = None }
  | None -> assert false

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

(* [Array.exists]/[Array.for_all] build a closure per call. *)
let rec any_dead vs k =
  k < Array.length vs && (Value.is_dead vs.(k) || any_dead vs (k + 1))

let rec all_dead vs k =
  k >= Array.length vs || (Value.is_dead vs.(k) && all_dead vs (k + 1))

(* An invariant node's consumers: invariant ones in the first iteration,
   the others in every iteration so far. *)
let wake st it dst =
  let rec every it =
    check_ready st dst it;
    match it.next with Some next -> every next | None -> ()
  in
  if st.plan.invariant.(dst) then check_ready st dst it else every it

let complete st i it (outputs : Value.t array) =
  let p = st.plan in
  it.values.(i) <- outputs;
  let data = p.out_data.(i) and control = p.out_control.(i) in
  if p.invariant.(i) then begin
    it.inv_done.(i) <- true;
    for k = 0 to Array.length data - 1 do
      wake st it (snd data.(k))
    done;
    for k = 0 to Array.length control - 1 do
      wake st it control.(k)
    done
  end
  else begin
    (* Count fresh outputs' bytes (always, so peaks compare with planning
       off), arm their reader counts, and drop those nobody reads. *)
    if p.fresh.(i) then begin
      if st.planning then it.rc.(i) <- Array.copy p.refcounts.(i);
      let rc = it.rc.(i) in
      for out = 0 to Array.length outputs - 1 do
        match outputs.(out) with
        | Value.Tensor t ->
            live_add st (Tensor.byte_size t);
            if out < Array.length rc && rc.(out) = 0 then drop st it i out
        | _ -> ()
      done
    end;
    (* A live Exit value belongs to the enclosing iteration too, so that
       fetches (which read the root iteration) see loop results even
       when the Exit has no consumer edge. *)
    (match (p.kind.(i), it.parent) with
    | Exit, Some parent ->
        for out = 0 to Array.length outputs - 1 do
          if not (Value.is_dead outputs.(out)) then
            store p parent i out outputs.(out)
        done
    | _ -> ());
    (* Dead NextIteration and Exit values are discarded, which is what
       terminates a loop. *)
    let discards_dead =
      match p.kind.(i) with Next_iteration | Exit -> true | _ -> false
    in
    for k = 0 to Array.length data - 1 do
      let out, dst = data.(k) in
      let v = if out < Array.length outputs then outputs.(out) else Value.Dead in
      if not (discards_dead && Value.is_dead v) then
        deliver st ~src:i ~out v it dst
    done;
    let dead = Array.length outputs > 0 && all_dead outputs 0 in
    if not (discards_dead && dead) then begin
      let token = if dead then Value.Dead else control_token in
      for k = 0 to Array.length control - 1 do
        deliver st ~src:i ~out:(-1) token it control.(k)
      done
    end;
    (* This node has finished reading: release its claim on each input
       endpoint armed in this iteration; the last reader out drops it. *)
    if st.planning then begin
      let inputs = p.inputs.(i) in
      for k = 0 to Array.length inputs - 1 do
        let src, out = inputs.(k) in
        let rc = it.rc.(src) in
        if out < Array.length rc && rc.(out) > 0 then begin
          rc.(out) <- rc.(out) - 1;
          if rc.(out) = 0 then drop st it src out
        end
      done
    end
  end

let resolve_kernel (p : plan) i =
  match p.kernels.(i) with
  | Some k -> k
  | None ->
      let n = p.nodes.(i) in
      raise
        (Step_failure.error ~node:n.Node.name
           (Step_failure.Invalid_graph
              (Printf.sprintf "no kernel for op %s (node %s)" n.Node.op_type
                 n.Node.name)))

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

(* A kernel failure, on whichever thread ran the kernel. A primary one
   aborts the rendezvous and cancels the step token at once, so peer
   partitions (threads parked in queue waits too) unblock even while the
   coordinator is busy elsewhere; a secondary one (the peer already
   aborted us, or the token already fired) needs no further
   propagation. *)
let kernel_failure st (n : Node.t) e =
  let device = Option.map Device.to_string n.Node.assigned_device in
  let f = failure_of_exn ~node:n.Node.name ~device e in
  if not (Step_failure.is_secondary f.Step_failure.cause) then begin
    let msg = Step_failure.to_string f in
    Option.iter (fun r -> Rendezvous.abort r ~reason:msg) st.rendezvous;
    Option.iter (fun c -> Cancel.cancel c ~reason:msg) st.cancel
  end;
  Step_failure.Error f

(* Kernel timing, taken when the step is traced or kernel timing is on:
   the op type's and the lane's seconds, and the tracer event. Every
   field but the times is fixed per node at [prepare]; the lane counter
   is cached per domain. *)
let lane_busy =
  Domain.DLS.new_key (fun () -> m_lane_busy (Domain.self () :> int))

let record st i ~start ~stop ~shards ~bytes ~peak =
  let p = st.plan in
  let duration = stop -. start in
  Metrics.Counter.add_f p.op_seconds.(i) duration;
  Metrics.Counter.add_f (Domain.DLS.get lane_busy) duration;
  match st.tracer with
  | None -> ()
  | Some t ->
      let n = p.nodes.(i) in
      Tracer.record t
        {
          Tracer.name = n.Node.name;
          op_type = n.Node.op_type;
          device = p.device.(i);
          lane = (Domain.self () :> int);
          start;
          duration;
          step_id = st.step_id;
          bytes;
          shards;
          peak_bytes = peak;
          fused = p.fused.(i);
        }

let bytes_of outputs =
  let sum = ref 0 in
  for k = 0 to Array.length outputs - 1 do
    sum := !sum + Value.byte_size outputs.(k)
  done;
  !sum

(* Run one staged kernel and store its outputs or its failure in the
   task; worker-domain-safe (see [stage]). *)
let call st task ctx kernel =
  match
    Cancel.check_opt st.cancel;
    Fault_injector.kernel_hook ctx.Kernel.node ~step_id:st.step_id;
    kernel ctx
  with
  | outputs ->
      task.outputs <- outputs;
      true
  | exception e ->
      task.failure <- Some (kernel_failure st ctx.Kernel.node e);
      false

let run st task =
  let p = st.plan and i = task.i in
  let ctx =
    {
      Kernel.node = p.nodes.(i);
      inputs = task.inputs;
      resources = st.resources;
      rendezvous = st.rendezvous;
      rng = task.rng;
      step_id = st.step_id;
      cancel = st.cancel;
      grants = task.grants;
      var_snapshot = st.var_snapshot;
    }
  in
  task.inputs <- [||];
  task.grants <- [];
  task.rng <- None;
  let kernel = resolve_kernel p i in
  if not st.timed then ignore (call st task ctx kernel)
  else begin
    (* The sharder's per-domain dispatch counter, sampled around the
       kernel, attributes intra-op shard counts to this node: sharding
       is always initiated on the domain the kernel runs on. The racy
       read of the step's live bytes feeds traces, not the planner. *)
    let shards_before = Octf_tensor.Parallel.domain_shards () in
    let start = Unix.gettimeofday () in
    if call st task ctx kernel then begin
      let stop = Unix.gettimeofday () in
      record st i ~start ~stop
        ~shards:(Octf_tensor.Parallel.domain_shards () - shards_before)
        ~bytes:0 ~peak:(st.live + bytes_of task.outputs)
    end
  end

(* Apply a run (or received) task's result on the coordinating thread. *)
let finish st task =
  let outputs = task.outputs and failure = task.failure in
  task.outputs <- [||];
  task.failure <- None;
  match failure with
  | Some e -> raise e
  | None -> complete st task.i task.it outputs

(* An armed Recv's value counts as a kernel, timed at zero duration with
   the bytes it carried. *)
let received st task =
  (match task.failure with
  | Some _ -> ()
  | None ->
      st.dispatched <- st.dispatched + 1;
      if st.timed then begin
        let now = Unix.gettimeofday () in
        record st task.i ~start:now ~stop:now ~shards:0
          ~bytes:(bytes_of task.outputs) ~peak:0
      end);
  finish st task

(* In-place grants: a declared May_alias pair is granted when the input
   endpoint is armed in this iteration with this node as its only
   remaining reader, poolable (no retaining consumer), not fetched and
   a float tensor. Staging and completion both run on the coordinating
   thread, so a count of 1 here means every other reader's kernel has
   fully finished. Ownership moves to the kernel's output: the endpoint
   is forgotten without recycling its buffer. At most one grant per
   input slot and per output. *)
let grants st i it inputs =
  let p = st.plan in
  let rec taken slot o = function
    | [] -> false
    | (s, o') :: rest -> s = slot || o' = o || taken slot o rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | ((slot, o) as decl) :: rest ->
        let ok =
          (not (taken slot o acc))
          && slot < Array.length p.inputs.(i)
          &&
          let src, out = p.inputs.(i).(slot) in
          let rc = it.rc.(src) in
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
          let src, out = p.inputs.(i).(slot) in
          it.rc.(src).(out) <- 0;
          it.values.(src).(out) <- Value.Dead;
          live_sub st (Value.byte_size inputs.(slot));
          st.granted <- st.granted + 1;
          go (decl :: acc) rest
        end
        else go acc rest
  in
  match p.aliases.(i) with
  | [] -> []
  | _ when not st.planning -> []
  | decls -> go [] decls

(* Gather a node's inputs: invariant ones from the instance's first
   iteration, a missing one as dead. *)
let gather (p : plan) i it =
  let srcs = p.inputs.(i) in
  let n = Array.length srcs in
  if n = 0 then [||]
  else begin
    let inputs = Array.make n Value.Dead in
    for k = 0 to n - 1 do
      let src, out = srcs.(k) in
      let vs = (if p.invariant.(src) then it.first else it).values.(src) in
      if out < Array.length vs then inputs.(k) <- vs.(out)
    done;
    inputs
  end

(* Stage one node on the coordinating thread: gather inputs, decide dead
   propagation (completing a dead node at once), draw grants and the RNG
   stream. Everything [run] then touches is either private to the task
   or mutex-protected (resources, queues, rendezvous, tracer), so it may
   run on a worker domain. *)
let stage st task =
  let p = st.plan and i = task.i and it = task.it in
  let inputs = gather p i it in
  let dead = it.dead_control.(i) || any_dead inputs 0 in
  if dead && (match p.kind.(i) with Merge | Send -> false | _ -> true) then begin
    complete st i it (Array.make p.num_outputs.(i) Value.Dead);
    false
  end
  else begin
    let n = p.nodes.(i) in
    (* An injected straggler waits here, on the coordinating thread,
       not on a pool worker, and parks only its own part. *)
    (let slow = Fault_injector.straggle n ~step_id:st.step_id in
     if slow > 0.0 then Option.iter (fun s -> Scheduler.pause s slow) st.sched);
    let (_ : Kernel.t) = resolve_kernel p i in
    task.inputs <- inputs;
    if p.random.(i) then
      task.rng <-
        Some
          (Rng.create
             (st.seed
             + (st.step_id * 1_000_003)
             + (n.Node.id * 7_919)
             + (it.index * 104_729)));
    task.grants <- grants st i it inputs;
    st.dispatched <- st.dispatched + 1;
    true
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
    ?(seed = 0) ?(step_id = 0) ?var_snapshot ~sync () =
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
      timed = Option.is_some tracer || Metrics.kernel_timing ();
      cancel;
      seed;
      step_id;
      var_snapshot;
      live = 0;
      peak = 0;
      dispatched = 0;
      granted = 0;
      sched = None;
    }
  in
  (* A ready Recv is armed once; its value (or the rendezvous' abort)
     comes back as a completion posted by the sender's thread. Without a
     rendezvous it runs as a blocking task, and its kernel fails. *)
  let classify, arm =
    match rendezvous with
    | None ->
        ( (fun task ->
            match p.cls.(task.i) with
            | Scheduler.Recv -> Scheduler.Blocking
            | c -> c),
          fun _ -> assert false )
    | Some r ->
        ( (fun task -> p.cls.(task.i)),
          fun task ->
            let sched = Option.get st.sched in
            Rendezvous.arm r
              ~key:(Rendezvous.key ~step_id p.recv_suffix.(task.i))
              (fun result ->
                (match result with
                | Ok v -> task.outputs <- [| v |]
                | Error reason ->
                    task.failure <- Some (Rendezvous.Aborted reason));
                Scheduler.received sched task) )
  in
  let ops =
    {
      Scheduler.classify;
      stage = stage st;
      run = run st;
      finish = finish st;
      arm;
      received = received st;
      cancel;
    }
  in
  let sched = Scheduler.create sync p.scheduler ops in
  st.sched <- Some sched;
  let root = new_instance p ~parent:None in
  (* Whatever the step's fate, the live count must not keep this step's
     bytes, and the step's counts reach their metrics. *)
  Fun.protect
    ~finally:(fun () ->
      Mem_plan.live_sub st.live;
      st.live <- 0;
      Metrics.Counter.add m_kernels st.dispatched;
      Mem_plan.publish ~peak:st.peak ~grants:st.granted)
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
