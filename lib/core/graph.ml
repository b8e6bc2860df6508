type t = {
  mutable nodes : Node.t array;
  mutable count : int;
  names : (string, int) Hashtbl.t;
}

let create () = { nodes = [||]; count = 0; names = Hashtbl.create 64 }

let grow g =
  let cap = Array.length g.nodes in
  if g.count >= cap then begin
    let ncap = max 64 (cap * 2) in
    let fresh =
      Array.make ncap
        {
          Node.id = -1;
          name = "";
          op_type = "";
          inputs = [||];
          control_inputs = [];
          attrs = [];
          device_spec = Device.unconstrained;
          assigned_device = None;
        }
    in
    Array.blit g.nodes 0 fresh 0 g.count;
    g.nodes <- fresh
  end

let unique_name g base =
  if not (Hashtbl.mem g.names base) then base
  else
    let rec try_suffix i =
      let candidate = Printf.sprintf "%s_%d" base i in
      if Hashtbl.mem g.names candidate then try_suffix (i + 1) else candidate
    in
    try_suffix 1

let node_count g = g.count

let get g id =
  if id < 0 || id >= g.count then
    invalid_arg (Printf.sprintf "Graph.get: unknown node id %d" id);
  g.nodes.(id)

let add_node g ?name ?(inputs = []) ?(control_inputs = [])
    ?(attrs = []) ?(device = Device.unconstrained) ~op_type () =
  let base = match name with Some n -> n | None -> op_type in
  let name = unique_name g base in
  List.iter
    (fun (e : Node.endpoint) ->
      let producer = get g e.node_id in
      let n_out = Node.num_outputs producer in
      if e.index < 0 || e.index >= n_out then
        invalid_arg
          (Printf.sprintf "Graph.add_node: %s has no output %d (arity %d)"
             producer.name e.index n_out))
    inputs;
  List.iter (fun c -> ignore (get g c)) control_inputs;
  grow g;
  let node =
    {
      Node.id = g.count;
      name;
      op_type;
      inputs = Array.of_list inputs;
      control_inputs;
      attrs;
      device_spec = device;
      assigned_device = None;
    }
  in
  g.nodes.(g.count) <- node;
  Hashtbl.replace g.names name g.count;
  g.count <- g.count + 1;
  node

(* Structurally independent copy. Node records are duplicated (their
   [assigned_device] field is mutable and [inputs] arrays are mutated
   through [set_input]'s record replacement only on the owning graph),
   so in-place rewrites on the copy leave the original untouched. *)
let copy ?(keep_placement = false) g =
  let nodes =
    Array.init (Array.length g.nodes) (fun i ->
        let n = g.nodes.(i) in
        if i < g.count then
          {
            n with
            Node.inputs = Array.copy n.inputs;
            assigned_device =
              (if keep_placement then n.assigned_device else None);
          }
        else n)
  in
  { nodes; count = g.count; names = Hashtbl.copy g.names }

let find_by_name g name =
  match Hashtbl.find_opt g.names name with
  | None -> None
  | Some id -> Some (get g id)

let get_by_name g name =
  match find_by_name g name with Some n -> n | None -> raise Not_found

let set_input g ~node_id ~slot (e : Node.endpoint) =
  let n = get g node_id in
  if slot < 0 || slot >= Array.length n.inputs then
    invalid_arg "Graph.set_input: slot out of range";
  let inputs = Array.copy n.inputs in
  inputs.(slot) <- e;
  g.nodes.(node_id) <- { n with inputs }

let replace_control_inputs g ~node_id controls =
  let n = get g node_id in
  g.nodes.(node_id) <- { n with control_inputs = controls }

let nodes g = List.init g.count (fun i -> g.nodes.(i))

let iter g f =
  for i = 0 to g.count - 1 do
    f g.nodes.(i)
  done

let consumers_of g =
  let out = Array.make g.count [] in
  iter g (fun n ->
      Array.iter
        (fun (e : Node.endpoint) -> out.(e.node_id) <- n.id :: out.(e.node_id))
        n.inputs;
      List.iter (fun c -> out.(c) <- n.id :: out.(c)) n.control_inputs);
  out

let out_edges g =
  let acc = ref [] in
  iter g (fun n ->
      Array.iteri
        (fun slot (e : Node.endpoint) ->
          acc := (e.node_id, e.index, n.id, slot) :: !acc)
        n.inputs);
  List.rev !acc

(* Back edges from NextIteration into Merge are the only legal cycles. *)
let is_back_edge g ~src ~dst =
  (get g src).op_type = "NextIteration" && (get g dst).op_type = "Merge"

let topological_order g =
  let indegree = Array.make g.count 0 in
  iter g (fun n ->
      Array.iter
        (fun (e : Node.endpoint) ->
          if not (is_back_edge g ~src:e.node_id ~dst:n.id) then
            indegree.(n.id) <- indegree.(n.id) + 1)
        n.inputs;
      List.iter
        (fun c ->
          if not (is_back_edge g ~src:c ~dst:n.id) then
            indegree.(n.id) <- indegree.(n.id) + 1)
        n.control_inputs);
  let ready = Queue.create () in
  for i = 0 to g.count - 1 do
    if indegree.(i) = 0 then Queue.add i ready
  done;
  let consumers = consumers_of g in
  let order = ref [] in
  let visited = ref 0 in
  while not (Queue.is_empty ready) do
    let id = Queue.pop ready in
    order := get g id :: !order;
    incr visited;
    List.iter
      (fun c ->
        if not (is_back_edge g ~src:id ~dst:c) then begin
          indegree.(c) <- indegree.(c) - 1;
          if indegree.(c) = 0 then Queue.add c ready
        end)
      consumers.(id)
  done;
  if !visited <> g.count then
    failwith "Graph.topological_order: graph has a non-loop cycle";
  List.rev !order

let pp fmt g =
  Format.fprintf fmt "graph (%d nodes):@." g.count;
  iter g (fun n -> Format.fprintf fmt "  %a@." Node.pp n)
