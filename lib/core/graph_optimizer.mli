(** Master-side graph optimizations (§5), as a declared pass pipeline.

    "Since the master sees the overall computation for a step, it applies
    standard optimizations such as common subexpression elimination and
    constant folding; pruning is a form of dead code elimination."

    Each step compilation runs a caller-chosen list of {!pass}es over
    the step's subgraph. Rewriting passes ({!Constant_fold}, {!Cse},
    {!Freeze}) mutate the graph in place by repointing consumer edges:
    they never mutate an existing node's input array (a new node record
    replaces it), so executors holding references to old records are
    unaffected. A rewrite leaves the losing duplicates disconnected —
    follow it with a {!Prune} pass (as {!default_pipeline} does) to drop
    them from the executed node set. *)

open Octf_tensor

(** One step of the optimization pipeline. *)
type pass =
  | Prune
      (** Dead-code elimination (§3.2): recompute the executed node set
          as everything backward-reachable from the step's fetches and
          targets, not expanding past fed nodes. Also the required
          cleanup after any rewriting pass. *)
  | Constant_fold
      (** Evaluate pure operations whose inputs are all constants and
          replace them with [Const] nodes. *)
  | Cse
      (** Merge pure operations with identical type, attributes, inputs
          and placement constraints onto one canonical node. Control
          dependencies compare as a set. *)
  | Fuse
      (** Collapse maximal chains/trees of pure elementwise operations
          (Add/Sub/Mul/Div/Neg/Exp/Relu/Sigmoid/Tanh/..., AddN,
          ReluGrad) into single [FusedElementwise] nodes whose "expr"
          attribute carries the operation tree in postfix
          ({!Octf_tensor.Fused_eval}). The fused kernel makes one pass
          over one output buffer instead of one pass per op, with
          bit-identical results. Interior nodes must be pure, unfed,
          unfetched, single-consumer, control-edge free and on the
          root's device. Follow with {!Prune}. *)
  | Freeze of (string -> Tensor.t option)
      (** Fold trained variables into constants: every [Read] whose
          variable name the lookup resolves is replaced by a [Const]
          holding the returned tensor. The inference path of the frozen
          step no longer touches variable state, so a following
          {!Prune} drops the [Variable] nodes and the whole training
          subgraph from the executed set. Variables the lookup returns
          [None] for (e.g. uninitialized) are left untouched. *)
  | Quantize of (string -> (float * float) option)
      (** Rewrite eligible MatMul / Conv2D subgraphs of a frozen
          inference graph into int8 islands (§5): activations pass
          through [Quantize] (or [QuantizeRange], when the lookup
          yields a calibrated [(lo, hi)] for the input endpoint name —
          ["name"] or ["name:k"]), weights are pre-quantized at rewrite
          time into packed uint8 [Const]s (4x smaller), and the
          contraction runs as a quantized kernel. When the lookup
          yields a range for the island's {e output} node name, the
          island absorbs a bias-Add/Relu epilogue into a codes-out
          kernel followed by an explicit [Dequantize]; consecutive
          calibrated islands then exchange codes directly (the
          Dequantize→Quantize pair between them is elided — the
          producer's range becomes authoritative). Fetched nodes are
          never rewritten, so final logits stay float. Inert on
          training and F64 graphs: the weight operand must be an F32
          [Const], which only {!Freeze} produces. Pass
          [(fun _ -> None)] for uncalibrated dynamic quantization.
          Follow with {!Prune}. *)

val default_pipeline : pass list
(** [[Constant_fold; Prune; Cse; Prune]] — what sessions run per step
    compilation (after {!run}'s implicit initial prune) unless
    configured otherwise ({!Session.Config.t.passes}). The mid-pipeline
    prune refreshes the node set so constants minted by folding are
    visible to CSE: rewriting passes operate on the {e current} set,
    and nodes added by a rewrite enter it at the next {!Prune}. *)

val fused_pipeline : pass list
(** {!default_pipeline} [@ [Fuse; Prune]] — what sessions run when the
    fusion knob resolves on ({!Session.Config.t.fusion}, default on).
    Fusion runs last so folded constants are external inputs and
    CSE-merged duplicates carry honest consumer counts. *)

val pass_name : pass -> string
(** Stable lowercase name ("prune", "constant_fold", "cse", "fuse",
    "freeze", "quantize") for logs and metrics labels. *)

val run :
  Graph.t ->
  passes:pass list ->
  feeds:Node.endpoint list ->
  fetches:Node.endpoint list ->
  targets:int list ->
  int list
(** Run the pipeline over the step defined by [feeds]/[fetches]/[targets]
    and return the node ids the executor should compile (ascending).
    The pipeline starts from an initial {!Prune} (the step definition
    itself); each listed pass then transforms the graph or the node
    set. Fed nodes are never folded, merged or frozen. *)

val is_pure : Node.t -> bool
(** Operations eligible for folding/merging: stateless, side-effect free,
    not control flow, not communication, not fed at runtime. *)
