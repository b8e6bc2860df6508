(** The dataflow graph (§3).

    A single graph represents all computation and state in an
    application: mathematical operations, parameters and their update
    rules, input preprocessing, checkpointing. Nodes are appended during
    construction (via {!Builder}); steps then execute pruned subgraphs
    ({!Pruner}, {!Session}). *)

type t

val create : unit -> t

val add_node :
  t ->
  ?name:string ->
  ?inputs:Node.endpoint list ->
  ?control_inputs:int list ->
  ?attrs:(string * Attr.t) list ->
  ?device:Device.spec ->
  op_type:string ->
  unit ->
  Node.t
(** Append a node. If [name] is omitted (or already taken) a unique name
    is derived from the op type. *)

val copy : ?keep_placement:bool -> t -> t
(** A structurally independent copy: same node ids, names and edges, so
    {!Builder.output}s built against the original address the copy too.
    Device assignments are cleared (the copy is placed from scratch by
    whatever session compiles it) unless [keep_placement]. In-place
    rewrites ({!Graph_optimizer}) on the copy leave the original
    untouched — how a frozen inference graph is derived without
    corrupting the training graph ([Octf_serving]), and how every
    compiled step is optimized without changing what later graph
    construction sees ({!Session}: [keep_placement:true], so the step's
    nodes keep the devices placed on the original). *)

val node_count : t -> int

val get : t -> int -> Node.t
(** @raise Invalid_argument on unknown id. *)

val find_by_name : t -> string -> Node.t option

val get_by_name : t -> string -> Node.t
(** @raise Not_found if absent. *)

val unique_name : t -> string -> string

val set_input : t -> node_id:int -> slot:int -> Node.endpoint -> unit
(** Backpatch one data input; needed to close loop-carried edges
    ([Merge] ← [NextIteration]) when building while loops (§3.4). The
    node's record is replaced rather than mutated, so compiled steps
    holding the old record are unaffected. *)

val replace_control_inputs : t -> node_id:int -> int list -> unit
(** Replace a node's control-input list (used by {!Graph_optimizer}). *)

val nodes : t -> Node.t list
(** All nodes in insertion order. *)

val iter : t -> (Node.t -> unit) -> unit

val consumers_of : t -> int list array
(** Indexed by node id: ids of nodes consuming any data output or control
    signal of that node (data and control edges combined). *)

val out_edges : t -> (int * int * int * int) list
(** All data edges as [(src, src_slot, dst, dst_slot)]. *)

val topological_order : t -> Node.t list
(** Nodes in a topological order of data+control edges, treating
    loop-carried [NextIteration → Merge] back edges as absent (they are
    the only intentional cycles, §3.4).
    @raise Failure on any other cycle. *)

val pp : Format.formatter -> t -> unit
