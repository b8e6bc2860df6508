(* Memory-planning policy shared by both executor paths (§5 of the
   paper; the 2015 white paper's "Common Subexpression / Memory"
   passes): which op outputs own a fresh buffer, which consumers are
   safe to free behind, and the process-wide enable switch + metrics.

   The lifetime analysis itself lives in Executor; this module only
   answers the static questions that make dropping and reusing a stored
   value sound:

   - [fresh_output_op op]: every output of [op] is a freshly allocated
     buffer no other value shares.  Pass-through ops (Identity, Switch,
     Merge, control-flow plumbing), buffer-sharing reshapes, variable
     reads/writes and queue/rendezvous endpoints all fail this test —
     their outputs may alias graph state that outlives the step.

   - [retains_input op]: [op] may keep a reference to an input tensor
     beyond its own execution (stores it into a variable, a queue, the
     rendezvous, passes the value through as its own output, or wraps
     it via a buffer-sharing reshape).  An endpoint with such a
     consumer must never hand its buffer to the pool when dropped. *)

let enabled_ref = ref true

let enabled () = !enabled_ref
let set_enabled v = enabled_ref := v

let fresh_output_op = function
  | "Add" | "Sub" | "Mul" | "Div" | "Pow" | "Mod" | "Maximum" | "Minimum"
  | "Neg" | "Abs" | "Sign" | "Exp" | "Log" | "Sqrt" | "Square" | "Reciprocal"
  | "Equal" | "Less" | "Greater" | "GreaterEqual" | "Select" | "AddN"
  | "FusedElementwise"
  | "MatMul" | "Cast" | "ArgMax" | "ReduceSum" | "ReduceMean" | "ReduceMax"
  | "ShapeOf" | "ZerosLike" | "OnesLike" | "Fill" | "RandomUniform"
  | "RandomNormal" | "Relu" | "Sigmoid" | "Tanh" | "Softmax" | "LogSoftmax"
  | "ReluGrad" | "SoftmaxCrossEntropy" | "Conv2D" | "Conv2DGradInput"
  | "Conv2DGradFilter" | "MaxPool" | "MaxPoolGrad" | "AvgPool" | "AvgPoolGrad"
  | "Transpose" | "Concat" | "Slice" | "Pad" | "Tile" | "OneHot" | "Gather"
  | "GatherVariable"
  | "Split" | "RangeLike" | "RandomIndices" | "DynamicPartition"
  | "DynamicStitch" | "ScatterIntoShape" | "UniqueSegmentSum"
  | "ReduceSumGrad" | "ReduceMeanGrad" | "ConcatGrad" | "SliceGrad" | "PadGrad"
  | "TileGrad"
  | "DynamicPartitionGrad" | "Quantize" | "Dequantize" | "QuantizedMatMul"
  | "QuantizeRange" | "QuantizedMatMulQ" | "QuantizedConv2DQ"
  | "QuantizedConv2D" ->
      true
  (* Everything else — Const (graph attribute), Placeholder, Identity,
     StopGradient, Reshape/ExpandDims/ReshapeLike/Pack/Unpack (share
     buffers), Variable/Read/Assign* (variable state), Switch/Merge/
     Enter/Exit/NextIteration/LoopCond (pass-through), SumToShape
     (returns its input when shapes already match), queue, rendezvous,
     TensorArray and IO ops — is conservatively not fresh. *)
  | _ -> false

let retains_input = function
  | "Identity" | "StopGradient" | "Reshape" | "ExpandDims" | "ReshapeLike"
  | "SumToShape" | "Switch" | "Merge" | "Enter" | "Exit" | "NextIteration"
  | "LoopCond" | "Send" | "Enqueue" | "EnqueueMany" | "Assign"
  | "TensorArrayWrite" ->
      true
  | _ -> false

(* Metrics. Live bytes are one process-wide atomic that every executing
   step adds to and subtracts from, lock-free; each step keeps its own
   peak of it and its grant count, and {!publish} moves them into the
   gauges and the counter at the step boundary, where the pool counters
   (lib/tensor cannot depend on Metrics) are synced too. *)

let live = Atomic.make 0

let m_live =
  Metrics.Gauge.v
    ~help:"Live intermediate tensor bytes tracked by the memory planner"
    "octf_mem_live_bytes"

let m_peak =
  Metrics.Gauge.v ~help:"High watermark of octf_mem_live_bytes"
    "octf_mem_peak_bytes"

let m_pool_hits =
  Metrics.Gauge.v ~help:"Buffer pool allocations served from a free list"
    "octf_mem_pool_hits"

let m_pool_misses =
  Metrics.Gauge.v
    ~help:"Buffer pool allocations that fell through to fresh allocation"
    "octf_mem_pool_misses"

let m_pool_evictions =
  Metrics.Gauge.v
    ~help:"Buffer releases dropped because the pool was at its byte bound"
    "octf_mem_pool_evictions"

let m_grants =
  Metrics.Counter.v
    ~help:"In-place (aliasing) buffer grants issued to kernels"
    "octf_mem_inplace_grants_total"

let live_add bytes = Atomic.fetch_and_add live bytes + bytes

let live_sub bytes = ignore (Atomic.fetch_and_add live (-bytes))

let live_bytes () = Atomic.get live

let publish ~peak ~grants =
  Metrics.Gauge.set m_live (float_of_int (Atomic.get live));
  Metrics.Gauge.max_to m_peak (float_of_int peak);
  Metrics.Counter.add m_grants grants;
  let s = Octf_tensor.Buffer_pool.stats () in
  Metrics.Gauge.set m_pool_hits (float_of_int s.Octf_tensor.Buffer_pool.hits);
  Metrics.Gauge.set m_pool_misses
    (float_of_int s.Octf_tensor.Buffer_pool.misses);
  Metrics.Gauge.set m_pool_evictions
    (float_of_int s.Octf_tensor.Buffer_pool.evictions)
