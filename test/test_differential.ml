(* Differential harness for the memory planner and the fusion pass:
   seeded random DAGs must fetch bit-identical tensors with planning on
   or off and with elementwise fusion on or off, under both schedulers
   and two intra-op thread budgets. Any divergence means the planner
   dropped or aliased a buffer somebody still read, or a fused kernel
   computed something its unfused originals would not; the failing
   graph is shrunk to its shortest failing prefix and printed. *)

open Octf_tensor
open Octf
module B = Builder

(* A generated graph is a straight-line program; instruction [i] may
   only reference earlier instructions, so every prefix is itself a
   valid program — which is what makes shrinking trivial. *)
type instr =
  | Leaf of int array  (* const with rng-drawn values *)
  | Fed of int array  (* placeholder, fed with an rng-drawn tensor *)
  | Unary of string * int
  | Binary of string * int * int
  | Matmul of int * int
  | Reduce of string * int  (* all-axes reduce to a scalar *)
  | Add_n of int list
  | Concat0 of int * int  (* same shape, rank >= 1, along axis 0 *)
  | Transpose2 of int  (* rank-2 transpose *)
  | Choose of int * int  (* select (a > b) a b: bool intermediate *)
  | Cond of cond
  | Loop of loop

(* Control flow. A block is a straight-line program over an environment
   made of its [n_in] inputs followed by its own instructions' results;
   its operands index that environment. *)
and block = { n_in : int; code : instr array; results : int list }

(* [B.cond] on reduce_sum %pa > reduce_sum %pb over [inputs]; both
   branches return one value shaped like the first input. *)
and cond = {
  pa : int;
  pb : int;
  inputs : int list;
  then_ : block;
  else_ : block;
}

(* [B.while_loop] with a scalar counter from 0 and the loop variables
   [init]: it runs [trips] times or, when nested ([trips = None]), as
   many times as the enclosing loop's counter, so zero times in the
   enclosing loop's first iteration. The body's environment is
   counter :: variables @ limit :: invariants and its results are the
   variables' next values; the instruction's value is the first
   variable's exit. *)
and loop = {
  trips : int option;
  init : int list;
  invs : int list;
  body : block;
}

let shape_to_string s =
  "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int s)) ^ "]"

(* Top-level values print as %i, block-local ones as $i. *)
let rec instr_lines ~v ~indent i instr =
  let r a = Printf.sprintf "%s%d" v a in
  let rs l = String.concat " " (List.map r l) in
  let line s = [ Printf.sprintf "%s%s = %s" indent (r i) s ] in
  let block label blk =
    Printf.sprintf "%s  %s ($0..$%d in) -> %s" indent label (blk.n_in - 1)
      (String.concat " " (List.map (Printf.sprintf "$%d") blk.results))
    :: List.concat
         (List.mapi
            (fun j instr ->
              instr_lines ~v:"$" ~indent:(indent ^ "    ") (blk.n_in + j) instr)
            (Array.to_list blk.code))
  in
  match instr with
  | Leaf s -> line ("const " ^ shape_to_string s)
  | Fed s -> line ("placeholder " ^ shape_to_string s ^ " (fed)")
  | Unary (op, a) -> line (Printf.sprintf "%s %s" op (r a))
  | Binary (op, a, b) -> line (Printf.sprintf "%s %s %s" op (r a) (r b))
  | Matmul (a, b) -> line (Printf.sprintf "matmul %s %s" (r a) (r b))
  | Reduce (op, a) -> line (Printf.sprintf "%s %s" op (r a))
  | Add_n srcs -> line ("add_n [" ^ rs srcs ^ "]")
  | Concat0 (a, b) -> line (Printf.sprintf "concat0 %s %s" (r a) (r b))
  | Transpose2 a -> line ("transpose " ^ r a)
  | Choose (a, b) ->
      line (Printf.sprintf "select (%s > %s) %s %s" (r a) (r b) (r a) (r b))
  | Cond c ->
      line
        (Printf.sprintf "cond (sum %s > sum %s) [%s]" (r c.pa) (r c.pb)
           (rs c.inputs))
      @ block "then" c.then_ @ block "else" c.else_
  | Loop l ->
      line
        (Printf.sprintf "while_loop trips=%s vars [%s] invariants [%s]"
           (match l.trips with
           | Some t -> string_of_int t
           | None -> "outer counter")
           (rs l.init) (rs l.invs))
      @ block "body" l.body

let operands = function
  | Leaf _ | Fed _ -> []
  | Unary (_, a) | Reduce (_, a) | Transpose2 a -> [ a ]
  | Binary (_, a, b) | Matmul (a, b) | Concat0 (a, b) | Choose (a, b) ->
      [ a; b ]
  | Add_n srcs -> srcs
  | Cond c -> c.pa :: c.pb :: c.inputs
  | Loop l -> l.init @ l.invs

let unary_ops =
  [| "Neg"; "Abs"; "Square"; "Relu"; "Sigmoid"; "Tanh"; "Identity";
     "StopGradient" |]

let binary_ops = [| "Add"; "Sub"; "Mul"; "Maximum"; "Minimum" |]

(* Output shape of each instruction, used to pick compatible operands.
   Binary/Add_n operands are either same-shaped or scalar, so the
   broadcast result is the highest-rank operand's shape. All values
   stay NaN-free: leaves are in [-1, 1] and no op in the pool (no
   exp/log/sqrt/div) can escape the reals, so bitwise comparison of
   fetches is meaningful; loop bodies squash every variable through
   tanh, so iterating cannot overflow either. *)
let shape_of shapes = function
  | Leaf s | Fed s -> s
  | Unary (_, a) -> shapes.(a)
  | Binary (_, a, b) | Choose (a, b) ->
      if Array.length shapes.(a) >= Array.length shapes.(b) then shapes.(a)
      else shapes.(b)
  | Matmul (a, b) -> [| shapes.(a).(0); shapes.(b).(1) |]
  | Reduce _ -> [||]
  | Add_n (a :: _) -> shapes.(a)
  | Add_n [] -> [||]
  | Concat0 (a, _) ->
      let s = Array.copy shapes.(a) in
      s.(0) <- 2 * s.(0);
      s
  | Transpose2 a -> [| shapes.(a).(1); shapes.(a).(0) |]
  | Cond c -> shapes.(List.hd c.inputs)
  | Loop l -> shapes.(List.hd l.init)

let pick rng l = List.nth l (Rng.int rng (List.length l))

(* One straight-line instruction over the first [i] values. Operand
   picks that need a matching partner fall back to a unary op when
   none exists, so generation never fails. *)
let gen_plain rng shapes i =
  let a = Rng.int rng i in
  (* A partner for [a] with the same shape, or a scalar (broadcasts with
     everything); [a] itself is allowed. *)
  let pick_partner () =
    let candidates = ref [] in
    for j = 0 to i - 1 do
      if Shape.equal shapes.(j) shapes.(a) || Array.length shapes.(j) = 0 then
        candidates := j :: !candidates
    done;
    match !candidates with [] -> None | l -> Some (pick rng l)
  in
  let same_shape_partner () =
    match pick_partner () with
    | Some b when Shape.equal shapes.(b) shapes.(a) -> Some b
    | _ -> None
  in
  let fallback () =
    Unary (unary_ops.(Rng.int rng (Array.length unary_ops)), a)
  in
  match Rng.int rng 10 with
  | 0 | 1 | 2 -> fallback ()
  | 3 | 4 -> (
      match pick_partner () with
      | Some b ->
          Binary (binary_ops.(Rng.int rng (Array.length binary_ops)), a, b)
      | None -> fallback ())
  | 5 -> (
      (* matmul: any rank-2 pair with a matching inner dimension *)
      let pairs = ref [] in
      for x = 0 to i - 1 do
        for y = 0 to i - 1 do
          if
            Array.length shapes.(x) = 2
            && Array.length shapes.(y) = 2
            && shapes.(x).(1) = shapes.(y).(0)
          then pairs := (x, y) :: !pairs
        done
      done;
      match !pairs with
      | [] -> fallback ()
      | l ->
          let x, y = pick rng l in
          Matmul (x, y))
  | 6 ->
      Reduce
        ( (match Rng.int rng 3 with
          | 0 -> "ReduceSum"
          | 1 -> "ReduceMean"
          | _ -> "ReduceMax"),
          a )
  | 7 -> (
      match (pick_partner (), pick_partner ()) with
      | Some b, Some c -> Add_n [ a; b; c ]
      | Some b, None -> Add_n [ a; b ]
      | _ -> fallback ())
  | 8 ->
      if Array.length shapes.(a) = 2 && Rng.int rng 2 = 0 then Transpose2 a
      else if Array.length shapes.(a) >= 1 then
        match same_shape_partner () with
        | Some b -> Concat0 (a, b)
        | None -> fallback ()
      else fallback ()
  | _ -> (
      match same_shape_partner () with
      | Some b -> Choose (a, b)
      | None -> fallback ())

(* Where a control-flow instruction is generated: at the top level, in
   a top-level loop's body (conds and nested loops), or in a nested
   loop's body (conds only). Cond branches hold straight-line code. *)
type depth = Top | Body | Nested_body

(* Values inside a loop body are invariant when they depend only on
   the loop's invariants; the executor runs such nodes once per frame
   instance. The generator keeps three things per-iteration, because
   frame entry, a Switch and a NextIteration must each wait for a value
   that arrives in every iteration: a nested loop's entering values, a
   cond predicate's first operand, and a body's results. *)
let rec gen_control rng shapes inv i depth =
  let all = List.init i Fun.id in
  let varying = List.filter (fun j -> not inv.(j)) all in
  let some l = List.init (1 + Rng.int rng 2) (fun _ -> pick rng l) in
  let loop_ok = depth <> Nested_body in
  if (not loop_ok) || Rng.int rng 2 = 0 then
    let inputs = some all in
    let branch () =
      gen_block rng
        ~shapes:(List.map (fun j -> shapes.(j)) inputs)
        ~inv:(List.map (fun _ -> false) inputs)
        ~ops:(1 + Rng.int rng 3) ~depth:None
        ~results:[ shapes.(List.hd inputs) ]
    in
    let pa = pick rng varying and pb = pick rng all in
    let then_ = branch () in
    Cond { pa; pb; inputs; then_; else_ = branch () }
  else
    let top = depth = Top in
    let pool = if top then all else varying in
    let init = some pool in
    let invs = List.init (Rng.int rng 3) (fun _ -> pick rng pool) in
    let var_shapes = List.map (fun j -> shapes.(j)) init in
    let body =
      gen_block rng
        ~shapes:
          (([||] :: var_shapes) @ ([||] :: List.map (fun j -> shapes.(j)) invs))
        ~inv:
          ((false :: List.map (fun _ -> false) init)
          @ (true :: List.map (fun _ -> true) invs))
        ~ops:(2 + Rng.int rng 4)
        ~depth:(Some (if top then Body else Nested_body))
        ~results:var_shapes
    in
    Loop
      {
        trips = (if top then Some (Rng.int rng 4) else None);
        init;
        invs;
        body;
      }

(* [ops] instructions over an environment of [shapes] (invariance
   [inv]), then one tanh per requested result shape over a per-iteration
   value of that shape. *)
and gen_block rng ~shapes ~inv ~ops ~depth ~results =
  let n_in = List.length shapes in
  let n = n_in + ops + List.length results in
  let env_shapes = Array.make n [||] and env_inv = Array.make n false in
  List.iteri (fun j s -> env_shapes.(j) <- s) shapes;
  List.iteri (fun j b -> env_inv.(j) <- b) inv;
  let code = Array.make (ops + List.length results) (Leaf [||]) in
  let push j instr =
    let i = n_in + j in
    code.(j) <- instr;
    env_shapes.(i) <- shape_of env_shapes instr;
    env_inv.(i) <-
      (match instr with
      | Cond _ | Loop _ -> false
      | _ -> List.for_all (fun a -> env_inv.(a)) (operands instr))
  in
  for j = 0 to ops - 1 do
    let i = n_in + j in
    push j
      (match depth with
      | Some d when Rng.int rng 4 = 0 -> gen_control rng env_shapes env_inv i d
      | _ -> gen_plain rng env_shapes i)
  done;
  List.iteri
    (fun r shape ->
      let i = n_in + ops + r in
      let candidates =
        List.filter
          (fun j -> Shape.equal env_shapes.(j) shape && not env_inv.(j))
          (List.init i Fun.id)
      in
      (* Lean towards the newest value so the block's code is used. *)
      let src =
        if Rng.int rng 2 = 0 then
          List.nth candidates (List.length candidates - 1)
        else pick rng candidates
      in
      push (ops + r) (Unary ("Tanh", src)))
    results;
  {
    n_in;
    code;
    results = List.init (List.length results) (fun r -> n_in + ops + r);
  }

(* Generate a program of [ops] instructions after a fixed set of leaves.
   With [control_flow], each instruction is a cond or a loop with
   probability 1/3, and at least one is. *)
let gen_program ?(control_flow = false) rng ~ops =
  let leaves =
    [ Leaf [||]; Leaf [| 4 |]; Leaf [| 3; 4 |]; Leaf [| 4; 5 |];
      Fed [| 4 |]; Fed [| 3; 4 |] ]
  in
  let n_leaves = List.length leaves in
  let n = n_leaves + ops in
  let prog = Array.make n (Leaf [||]) in
  let shapes = Array.make n [||] in
  let root_invariant = Array.make n false (* the root has no invariants *) in
  List.iteri (fun i l -> prog.(i) <- l) leaves;
  List.iteri (fun i _ -> shapes.(i) <- shape_of shapes prog.(i)) leaves;
  let forced = if control_flow then n_leaves + Rng.int rng ops else -1 in
  for i = n_leaves to n - 1 do
    let instr =
      if i = forced || (control_flow && Rng.int rng 3 = 0) then
        gen_control rng shapes root_invariant i Top
      else gen_plain rng shapes i
    in
    prog.(i) <- instr;
    shapes.(i) <- shape_of shapes instr
  done;
  prog

let emit_plain b (env : B.output array) = function
  | Unary (op, a) -> (
      let x = env.(a) in
      match op with
      | "Neg" -> B.neg b x
      | "Abs" -> B.abs b x
      | "Square" -> B.square b x
      | "Relu" -> B.relu b x
      | "Sigmoid" -> B.sigmoid b x
      | "Tanh" -> B.tanh b x
      | "Identity" -> B.identity b x
      | "StopGradient" -> B.stop_gradient b x
      | _ -> assert false)
  | Binary (op, a, b') -> (
      let x = env.(a) and y = env.(b') in
      match op with
      | "Add" -> B.add b x y
      | "Sub" -> B.sub b x y
      | "Mul" -> B.mul b x y
      | "Maximum" -> B.maximum b x y
      | "Minimum" -> B.minimum b x y
      | _ -> assert false)
  | Matmul (a, b') -> B.matmul b env.(a) env.(b')
  | Reduce (op, a) -> (
      match op with
      | "ReduceSum" -> B.reduce_sum b env.(a)
      | "ReduceMean" -> B.reduce_mean b env.(a)
      | _ -> B.reduce_max b env.(a))
  | Add_n srcs -> B.add_n b (List.map (fun s -> env.(s)) srcs)
  | Concat0 (a, b') -> B.concat b ~axis:0 [ env.(a); env.(b') ]
  | Transpose2 a -> B.transpose b env.(a)
  | Choose (a, b') ->
      B.select b (B.greater b env.(a) env.(b')) env.(a) env.(b')
  | Leaf _ | Fed _ | Cond _ | Loop _ -> assert false

let rec emit b env instr =
  match instr with
  | Cond c ->
      let pred =
        B.greater b (B.reduce_sum b env.(c.pa)) (B.reduce_sum b env.(c.pb))
      in
      let branch blk b ins = emit_block b ins blk in
      List.hd
        (B.cond b pred
           ~inputs:(List.map (fun j -> env.(j)) c.inputs)
           ~then_:(branch c.then_) ~else_:(branch c.else_))
  | Loop l ->
      let counter, limit =
        match l.trips with
        | Some t -> (B.const_f b 0.0, B.const_f b (float_of_int t -. 0.5))
        | None -> (B.zeros_like b env.(0), env.(0))
      in
      let k = List.length l.init in
      let exits =
        B.while_loop b
          ~invariants:(limit :: List.map (fun j -> env.(j)) l.invs)
          ~cond:(fun b vars -> B.less b (List.hd vars) (List.nth vars (k + 1)))
          ~body:(fun b vars ->
            let c = List.hd vars in
            B.add b c (B.ones_like b c) :: emit_block b vars l.body)
          (counter :: List.map (fun j -> env.(j)) l.init)
      in
      List.nth exits 1
  | _ -> emit_plain b env instr

and emit_block b ins blk =
  let env = Array.make (blk.n_in + Array.length blk.code) (List.hd ins) in
  List.iteri (fun j x -> env.(j) <- x) ins;
  Array.iteri (fun j instr -> env.(blk.n_in + j) <- emit b env instr) blk.code;
  List.map (fun r -> env.(r)) blk.results

(* Emit a program prefix of length [k] into [b] and return the fetches
   (every sink, so nothing is silently unused) and the feed list. Leaf
   and feed values come from a generator re-seeded per emission, so
   every configuration sees the same numbers. [device_of i], when it
   names a device, places instruction [i] there. *)
let emit_program ?(device_of = fun _ -> None) b prog k =
  let vrng = Rng.create 77 in
  let tensor shape = Tensor.uniform vrng shape ~lo:(-1.0) ~hi:1.0 in
  let outs = Array.make k (B.const_f b 0.0) in
  let feeds = ref [] in
  for i = 0 to k - 1 do
    let instr () =
      match prog.(i) with
      | Leaf s -> B.const b (tensor s)
      | Fed s ->
          let ph = B.placeholder b Dtype.F32 in
          feeds := (ph, tensor s) :: !feeds;
          ph
      | instr -> emit b outs instr
    in
    outs.(i) <-
      (match device_of i with
      | Some d -> B.with_device b d instr
      | None -> instr ())
  done;
  (* Fetch every sink: instructions no later instruction consumes. *)
  let consumed = Array.make k false in
  Array.iteri
    (fun i instr ->
      if i < k then List.iter (fun a -> consumed.(a) <- true) (operands instr))
    prog;
  let fetches = ref [] in
  for i = k - 1 downto 0 do
    if not consumed.(i) then fetches := outs.(i) :: !fetches
  done;
  (!fetches, !feeds)

let build_graph ?device_of prog k =
  let b = B.create () in
  let fetches, feeds = emit_program ?device_of b prog k in
  (b, fetches, feeds)

let configs =
  List.concat_map
    (fun fusion ->
      List.concat_map
        (fun planning ->
          List.concat_map
            (fun scheduler ->
              List.map
                (fun threads -> (fusion, planning, scheduler, threads))
                [ 1; 4 ])
            [ Scheduler.Inline; Scheduler.Pool ])
        [ false; true ])
    [ false; true ]

let config_to_string (fusion, planning, scheduler, threads) =
  Printf.sprintf "fusion=%b planning=%b scheduler=%s threads=%d" fusion
    planning
    (Scheduler.policy_to_string scheduler)
    threads

(* Run the program prefix under every configuration; Some description on
   the first divergence from the reference config, None if all agree. *)
let divergence prog k =
  let _, probe_fetches, _ = build_graph prog k in
  if probe_fetches = [] then None
  else begin
    let run (fusion, planning, scheduler, threads) =
      Parallel.set_threads threads;
      (* Each configuration rebuilds the (deterministically identical)
         graph: the fuse pass rewrites the graph in place at compile
         time, so sharing one graph would leak fused nodes into the
         unfused legs. *)
      let b, fetches, feeds = build_graph prog k in
      let s =
        if fusion then
          Session.create
            ~config:
              (Session.Config.v
                 ~passes:[ Graph_optimizer.Fuse; Graph_optimizer.Prune ]
                 ~scheduler ~memory_planning:planning ())
            (B.graph b)
        else
          Session.create
            ~config:
              (Session.Config.v ~passes:[] ~scheduler
                 ~memory_planning:planning ())
            (B.graph b)
      in
      Session.run ~feeds s fetches
    in
    let run config =
      match run config with
      | got -> Ok got
      | exception e ->
          Error
            (Printf.sprintf "%s failed: %s" (config_to_string config)
               (match e with
               | Session.Run_error f -> Step_failure.to_string f
               | e -> Printexc.to_string e))
    in
    match run (List.hd configs) with
    | Error msg -> Some msg
    | Ok reference ->
        List.fold_left
          (fun acc config ->
            match acc with
            | Some _ -> acc
            | None -> (
                match run config with
                | Error msg -> Some msg
                | Ok got when List.for_all2 Tensor.equal reference got -> None
                | Ok _ ->
                    Some
                      (Printf.sprintf "fetches diverge: %s vs %s"
                         (config_to_string (List.hd configs))
                         (config_to_string config))))
          None (List.tl configs)
  end

let program_to_string prog k =
  String.concat "\n"
    (List.concat
       (List.init k (fun i -> instr_lines ~v:"%" ~indent:"  " i prog.(i))))

(* Quantized legs: the dynamic Quantize pass rewrites every eligible
   matmul (const rhs weights) to 8-bit arithmetic, so fetches are NOT
   bit-identical to the float reference — they must instead stay within
   the quantization error budget, and the quantized runs themselves
   must be bit-identical across schedulers and thread counts (the
   integer kernels shard deterministically).

   Error model: one dynamically quantized matmul with operands bounded
   by M and inner dimension k contributes at most
   k * (2M * step/2 + step^2/4) with step <= 2M/255 — about 0.008*k*M^2
   in absolute terms; downstream ops propagate and (matmul/add_n)
   amplify it linearly in M. The tolerance below is that analytic
   per-island bound scaled by the graph's observed magnitude, with a
   comfortable constant margin for chained islands. *)
let quant_configs =
  [
    (Scheduler.Inline, 1); (Scheduler.Inline, 4);
    (Scheduler.Pool, 1); (Scheduler.Pool, 4);
  ]

let max_abs tensors =
  List.fold_left
    (fun acc t ->
      let m = ref acc in
      for i = 0 to Tensor.numel t - 1 do
        m := Float.max !m (Float.abs (Tensor.flat_get_f t i))
      done;
      !m)
    0.0 tensors

let quant_divergence prog k =
  let _, probe_fetches, _ = build_graph prog k in
  if probe_fetches = [] then None
  else begin
    let run ~quantize (scheduler, threads) =
      Parallel.set_threads threads;
      let b, fetches, feeds = build_graph prog k in
      let s =
        if quantize then
          Session.create
            ~config:
              (Session.Config.v
                 ~passes:
                   [
                     Graph_optimizer.Quantize (fun _ -> None);
                     Graph_optimizer.Prune;
                   ]
                 ~scheduler ())
            (B.graph b)
        else Session.create
               ~config:(Session.Config.v ~passes:[] ~scheduler ())
               (B.graph b)
      in
      Session.run ~feeds s fetches
    in
    let reference = run ~quantize:false (List.hd quant_configs) in
    (* magnitude-scaled analytic tolerance; the +0.05 floor covers
       near-zero fetches downstream of cancelling subtractions *)
    let m = Float.max 1.0 (max_abs reference) in
    let tol = 0.05 +. (0.05 *. m *. m) in
    let q_reference = run ~quantize:true (List.hd quant_configs) in
    let within_tol =
      List.for_all2
        (fun r q ->
          let ok = ref true in
          for i = 0 to Tensor.numel r - 1 do
            if
              Float.abs (Tensor.flat_get_f r i -. Tensor.flat_get_f q i)
              > tol
            then ok := false
          done;
          !ok)
        reference q_reference
    in
    if not within_tol then
      Some
        (Printf.sprintf
           "quantized fetches exceed error budget %.3f vs float reference" tol)
    else
      List.fold_left
        (fun acc config ->
          match acc with
          | Some _ -> acc
          | None ->
              let got = run ~quantize:true config in
              if List.for_all2 Tensor.equal q_reference got then None
              else
                Some
                  (Printf.sprintf
                     "quantized fetches diverge: scheduler=%s threads=%d \
                      not bit-identical to the quantized reference"
                     (Scheduler.policy_to_string (fst config))
                     (snd config)))
        None (List.tl quant_configs)
  end

(* Check [graphs] seeded programs with [divergence]. A failing program
   is shrunk to its shortest failing prefix — prefixes of a
   straight-line program are always valid graphs — and printed. *)
let check_corpus ?control_flow ~seed0 ~graphs divergence =
  let saved = Parallel.threads () in
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) @@ fun () ->
  for seed = 1 to graphs do
    let rng = Rng.create (seed0 + seed) in
    let ops = 4 + Rng.int rng 11 in
    let prog = gen_program ?control_flow rng ~ops in
    let n = Array.length prog in
    match divergence prog n with
    | None -> ()
    | Some full_msg ->
        let k = ref n and msg = ref full_msg in
        (try
           for j = 1 to n - 1 do
             match divergence prog j with
             | Some m ->
                 k := j;
                 msg := m;
                 raise Exit
             | None -> ()
           done
         with Exit -> ());
        Alcotest.failf "seed %d, shrunk to %d instructions: %s\n%s" seed !k
          !msg
          (program_to_string prog !k)
  done

let test_random_dags () = check_corpus ~seed0:1000 ~graphs:200 divergence

(* The same 200-DAG corpus under the dynamic quantization pass:
   eligible graphs (matmul with const rhs) run quantized, everything
   else passes through untouched. *)
let test_random_dags_quantized () =
  check_corpus ~seed0:1000 ~graphs:200 quant_divergence

(* Conds and while loops (nested, zero-trip, with invariants) around
   the same instruction set, across the same 16 configurations: frames,
   dead branches and per-iteration lifetimes must not change a bit. *)
let test_random_control_flow () =
  check_corpus ~control_flow:true ~seed0:5000 ~graphs:100 divergence

(* Multi-device legs: the same straight-line programs with every
   instruction placed on one of two tasks, so each edge between tasks
   becomes a Send/Recv pair. The partitioned step must fetch exactly the
   bits of the single-device session. The split hashes the whole
   program and the instruction index, so a shrunk prefix keeps its
   placement. *)
let two_tasks = [| "/job:worker/task:0"; "/job:ps/task:0" |]

let split prog i = Some two_tasks.(Hashtbl.hash (Hashtbl.hash prog, i) land 1)

let single_device_run prog k =
  let b, fetches, feeds = build_graph prog k in
  Session.run ~feeds
    (Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b))
    fetches

let multi_device_divergence prog k =
  let _, probe_fetches, _ = build_graph prog k in
  if probe_fetches = [] then None
  else begin
    let reference = single_device_run prog k in
    let run (label, config) =
      let b, fetches, feeds = build_graph ~device_of:(split prog) prog k in
      let s =
        Cluster.session (Cluster.create ~jobs:Test_net.ps_worker_jobs) ~config
          (B.graph b)
      in
      match Session.run ~feeds s fetches with
      | got when List.for_all2 Tensor.equal reference got -> None
      | _ -> Some (label ^ ": fetches diverge from the single-device run")
      | exception Session.Run_error f ->
          Some (label ^ " failed: " ^ Step_failure.to_string f)
    in
    List.fold_left
      (fun acc leg -> match acc with Some _ -> acc | None -> run leg)
      None
      [
        ("two tasks, inline", Session.Config.v ~passes:[] ());
        ( "two tasks, pool",
          Session.Config.v ~passes:[] ~scheduler:Scheduler.Pool () );
        ("two tasks, default passes", Session.Config.v ());
      ]
  end

let counter name =
  Option.value (Metrics.find_value Metrics.default name) ~default:0.0

(* Fails when no step of a corpus exercised what it claims to. *)
let check_grew what name f =
  let before = counter name in
  f ();
  Alcotest.(check bool) what true (counter name > before)

let test_random_dags_two_tasks () =
  check_grew "the split steps sent tensors between tasks"
    "octf_rendezvous_sends_total" (fun () ->
      check_corpus ~seed0:1000 ~graphs:100 multi_device_divergence)

(* The same split over two [Octf_net] runtimes on loopback: one graph
   holds [graphs] programs, each party builds it, and the chief runs
   each program as its own step. Every step with instructions on the ps
   goes through a Run_step RPC; its tensors cross TCP. *)
let test_random_dags_loopback () =
  let graphs = 12 in
  let progs =
    List.init graphs (fun seed ->
        let rng = Rng.create (7000 + seed) in
        gen_program rng ~ops:(4 + Rng.int rng 11))
  in
  let build () =
    let b = B.create () in
    ( b,
      List.map
        (fun prog ->
          emit_program ~device_of:(split prog) b prog (Array.length prog))
        progs )
  in
  check_grew "the chief issued Run_step RPCs" "octf_net_rpcs_total"
  @@ fun () ->
  Test_net.with_loopback_pair
    ~config:(Session.Config.v ~passes:[] ())
    build
    (fun session steps ->
      List.iteri
        (fun seed (prog, (fetches, feeds)) ->
          if fetches <> [] then
            let reference = single_device_run prog (Array.length prog) in
            match Session.run ~feeds session fetches with
            | got when List.for_all2 Tensor.equal reference got -> ()
            | _ ->
                Alcotest.failf "loopback program %d diverges:\n%s" seed
                  (program_to_string prog (Array.length prog))
            | exception Session.Run_error f ->
                Alcotest.failf "loopback program %d failed: %s" seed
                  (Step_failure.to_string f))
        (List.combine progs steps))

(* Pipelined legs: a stateless program must fetch bit-identical tensors
   whether run synchronously or issued through run_async at K = 1, at
   K = 4, or under barrier mode — admission snapshots only redirect
   Read kernels, which a stateless graph has none of. Checked across
   both schedulers and two intra-op budgets. *)
let test_pipelined_stateless () =
  let saved = Parallel.threads () in
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) @@ fun () ->
  let rng = Rng.create 4242 in
  let prog = gen_program rng ~ops:10 in
  let b, fetches, feeds = build_graph prog (Array.length prog) in
  Alcotest.(check bool) "program has fetches" true (fetches <> []);
  List.iter
    (fun (scheduler, threads) ->
      Parallel.set_threads threads;
      let sync =
        let s =
          Session.create
            ~config:(Session.Config.v ~passes:[] ~scheduler ())
            (B.graph b)
        in
        Session.run ~feeds s fetches
      in
      List.iter
        (fun (label, max_in_flight, barrier) ->
          let s =
            Session.create
              ~config:
                (Session.Config.v ~passes:[] ~scheduler ~max_in_flight
                   ~barrier ())
              (B.graph b)
          in
          let options = Session.Run_options.v ~feeds () in
          let handles =
            List.init 8 (fun _ -> Session.run_async ~options s fetches)
          in
          List.iter
            (fun h ->
              let got, _ = Session.wait h in
              if not (List.for_all2 Tensor.equal sync got) then
                Alcotest.failf
                  "pipelined %s diverges from sync (scheduler=%s threads=%d)"
                  label
                  (Scheduler.policy_to_string scheduler)
                  threads)
            handles;
          Session.drain s)
        [ ("K=1", 1, false); ("K=4", 4, false); ("barrier", 4, true) ])
    [
      (Scheduler.Inline, 1);
      (Scheduler.Inline, 4);
      (Scheduler.Pool, 1);
      (Scheduler.Pool, 4);
    ]

(* Variable updates from K = 4 in-flight steps apply under the
   variable's lock in completion order: the final state of an
   associative update graph is the exact linearizable sum, whatever the
   interleaving. *)
let test_pipelined_variable_updates () =
  let b = B.create () in
  let v = B.variable b ~name:"acc" ~dtype:Dtype.F32 ~shape:[||] () in
  let init = B.assign b v (B.const_f b 0.0) in
  let bump = B.assign_add b v (B.const_f b 1.0) in
  let read = B.read b v in
  let s =
    Session.create ~config:(Session.Config.v ~max_in_flight:4 ()) (B.graph b)
  in
  Session.run_unit s [ init ];
  let handles = List.init 20 (fun _ -> Session.run_async s [ bump ]) in
  List.iter (fun h -> ignore (Session.wait h)) handles;
  Session.drain s;
  match Session.run s [ read ] with
  | [ t ] ->
      Alcotest.(check (float 0.0)) "linearizable sum" 20.0
        (Tensor.flat_get_f t 0)
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "200 random DAGs, 16 configs, bit-identical" `Quick
      test_random_dags;
    Alcotest.test_case "200 random DAGs, quantized within error budget" `Quick
      test_random_dags_quantized;
    Alcotest.test_case "pipelined K=1/K=4/barrier bit-identical" `Quick
      test_pipelined_stateless;
    Alcotest.test_case "pipelined variable updates linearize" `Quick
      test_pipelined_variable_updates;
    Alcotest.test_case "100 random control-flow DAGs, 16 configs, bit-identical"
      `Quick test_random_control_flow;
    Alcotest.test_case "100 random DAGs split over two tasks, bit-identical"
      `Quick test_random_dags_two_tasks;
    Alcotest.test_case "12 random DAGs over two loopback runtimes" `Quick
      test_random_dags_loopback;
  ]
