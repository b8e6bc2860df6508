(* The elementwise engine. Every elementwise kernel — a standalone
   unary, binary or comparison op, AddN, or a FusedElementwise group
   formed by the optimizer's Fuse pass — is an [expr] compiled once into
   a [program] and run by [run].

   A program is a stack machine over chunks of at most [chunk] output
   elements. Each step is one loop over a chunk with its scalar formula
   written out, so floats stay unboxed; nothing is looked up or parsed
   per call. A stack slot is a view (buffer, offset): an input whose
   shape is the output's is read where it lies, a scalar is filled into
   a scratch chunk, a suffix broadcast such as a bias is read in place
   or by [Array.blit] runs, a general broadcast one run per output row,
   and the bottom slot's results go straight into the output. Scratch
   chunks are allocated per call and per shard, so concurrent calls of
   one program share nothing mutable.

   Bit-identity is the contract: fused or alone, each op applies the
   same scalar formula in the same operand order, and every element is
   computed independently, so results do not depend on fusion,
   sharding or chunking. Integer tensors run the same steps
   over [int] arrays: Add, Sub, Mul, Maximum, Minimum, ReluGrad, Neg,
   Abs, Sign, Square, Relu and the comparisons are exact integer
   arithmetic; the other ops go through float and truncate with
   [int_of_float]. *)

type expr = Input of int | Unary of string * expr | Binary of string * expr * expr

(* Floor-mod (TF FloorMod): the result takes the divisor's sign. *)
let floor_mod a b =
  let r = Float.rem a b in
  if r <> 0.0 && r < 0.0 <> (b < 0.0) then r +. b else r

let unary_ops =
  [ "Neg"; "Abs"; "Sign"; "Exp"; "Log"; "Sqrt"; "Square"; "Reciprocal";
    "Relu"; "Sigmoid"; "Tanh" ]

let binary_ops =
  [ "Add"; "Sub"; "Mul"; "Div"; "Pow"; "Mod"; "Maximum"; "Minimum";
    "ReluGrad" ]

let compare_ops = [ "Equal"; "Less"; "Greater"; "GreaterEqual" ]

let is_unary op = List.mem op unary_ops
let is_binary op = List.mem op binary_ops
let is_compare op = List.mem op compare_ops

let rec num_inputs = function
  | Input k -> k + 1
  | Unary (_, e) -> num_inputs e
  | Binary (_, a, b) -> Stdlib.max (num_inputs a) (num_inputs b)

let rec op_count = function
  | Input _ -> 0
  | Unary (_, e) -> 1 + op_count e
  | Binary (_, a, b) -> 1 + op_count a + op_count b

let add_n k =
  if k < 1 then invalid_arg "Fused_eval.add_n: no inputs";
  let acc = ref (Input 0) in
  for i = 1 to k - 1 do
    acc := Binary ("Add", !acc, Input i)
  done;
  !acc

(* Wire format for the node attribute: postfix token list, inputs as
   "in<k>", operations by their graph op_type. *)
let to_postfix expr =
  (* [go acc e] returns [rev (postfix e) @ acc]: operator first, then
     the second operand's tokens, then the first's — reversing at the
     end yields true postfix, which [of_postfix] pops b-then-a. *)
  let rec go acc = function
    | Input k -> Printf.sprintf "in%d" k :: acc
    | Unary (op, e) -> op :: go acc e
    | Binary (op, a, b) -> op :: go (go acc a) b
  in
  List.rev (go [] expr)

let of_postfix tokens =
  let stack = ref [] in
  List.iter
    (fun tok ->
      if String.length tok > 2 && String.sub tok 0 2 = "in" then
        match int_of_string_opt (String.sub tok 2 (String.length tok - 2)) with
        | Some k when k >= 0 -> stack := Input k :: !stack
        | _ -> invalid_arg ("Fused_eval.of_postfix: bad input token " ^ tok)
      else if is_unary tok then
        match !stack with
        | e :: rest -> stack := Unary (tok, e) :: rest
        | [] -> invalid_arg "Fused_eval.of_postfix: unary underflow"
      else if is_binary tok then
        match !stack with
        | b :: a :: rest -> stack := Binary (tok, a, b) :: rest
        | _ -> invalid_arg "Fused_eval.of_postfix: binary underflow"
      else invalid_arg ("Fused_eval.of_postfix: unknown token " ^ tok))
    tokens;
  match !stack with
  | [ e ] -> e
  | _ -> invalid_arg "Fused_eval.of_postfix: ill-formed expression"

(* ------------------------------------------------------------------ *)
(* Chunk loops                                                          *)

(* A step reads views (a, ao) [, (b, bo)] and writes [len] results at
   (d, o); d may be one of the views at the same offset (in place), as
   every loop reads element i before writing element i. [run] only
   builds views inside their buffers, so the loops index unchecked. *)
type 'a un = 'a array -> int -> 'a array -> int -> int -> unit

type 'a bin = 'a array -> int -> 'a array -> int -> 'a array -> int -> int -> unit

type 'a cmp =
  'a array -> int -> 'a array -> int -> bool array -> int -> int -> unit

(* Unchecked float access for the chunk loops. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"

external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

let float_un op : float un =
  match op with
  | "Neg" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- -.a.!(ao + k)
        done
  | "Abs" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- Float.abs a.!(ao + k)
        done
  | "Sign" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          let x = a.!(ao + k) in
          d.!(o + k) <- (if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0)
        done
  | "Exp" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- Stdlib.exp a.!(ao + k)
        done
  | "Log" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- Stdlib.log a.!(ao + k)
        done
  | "Sqrt" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- Stdlib.sqrt a.!(ao + k)
        done
  | "Square" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          let x = a.!(ao + k) in
          d.!(o + k) <- x *. x
        done
  | "Reciprocal" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- 1.0 /. a.!(ao + k)
        done
  | "Relu" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- Float.max 0.0 a.!(ao + k)
        done
  | "Sigmoid" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- 1.0 /. (1.0 +. Stdlib.exp (-.a.!(ao + k)))
        done
  | "Tanh" ->
      fun d o a ao len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- Stdlib.tanh a.!(ao + k)
        done
  | op -> invalid_arg ("Fused_eval: unknown unary " ^ op)

let float_bin op : float bin =
  match op with
  | "Add" ->
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- a.!(ao + k) +. b.!(bo + k)
        done
  | "Sub" ->
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- a.!(ao + k) -. b.!(bo + k)
        done
  | "Mul" ->
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- a.!(ao + k) *. b.!(bo + k)
        done
  | "Div" ->
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- a.!(ao + k) /. b.!(bo + k)
        done
  | "Pow" ->
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- a.!(ao + k) ** b.!(bo + k)
        done
  | "Mod" ->
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- floor_mod a.!(ao + k) b.!(bo + k)
        done
  | "Maximum" ->
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- Float.max a.!(ao + k) b.!(bo + k)
        done
  | "Minimum" ->
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- Float.min a.!(ao + k) b.!(bo + k)
        done
  | "ReluGrad" ->
      (* a is the incoming gradient, b the forward input *)
      fun d o a ao b bo len ->
        for k = 0 to len - 1 do
          d.!(o + k) <- (if b.!(bo + k) > 0.0 then a.!(ao + k) else 0.0)
        done
  | op -> invalid_arg ("Fused_eval: unknown binary " ^ op)

let float_cmp op : float cmp =
  match op with
  | "Equal" ->
      fun a ao b bo d o len ->
        for k = 0 to len - 1 do
          Array.unsafe_set d (o + k) (a.!(ao + k) = b.!(bo + k))
        done
  | "Less" ->
      fun a ao b bo d o len ->
        for k = 0 to len - 1 do
          Array.unsafe_set d (o + k) (a.!(ao + k) < b.!(bo + k))
        done
  | "Greater" ->
      fun a ao b bo d o len ->
        for k = 0 to len - 1 do
          Array.unsafe_set d (o + k) (a.!(ao + k) > b.!(bo + k))
        done
  | "GreaterEqual" ->
      fun a ao b bo d o len ->
        for k = 0 to len - 1 do
          Array.unsafe_set d (o + k) (a.!(ao + k) >= b.!(bo + k))
        done
  | op -> invalid_arg ("Fused_eval: unknown comparison " ^ op)

(* Integer steps apply an [int] function per element; ints are
   immediate, so the closure call allocates nothing. *)
let int_un_loop f : int un =
 fun d o a ao len ->
  for i = 0 to len - 1 do
    Array.unsafe_set d (o + i) (f (Array.unsafe_get a (ao + i)))
  done

let int_bin_loop f : int bin =
 fun d o a ao b bo len ->
  for i = 0 to len - 1 do
    Array.unsafe_set d (o + i)
      (f (Array.unsafe_get a (ao + i)) (Array.unsafe_get b (bo + i)))
  done

let int_cmp_loop f : int cmp =
 fun a ao b bo d o len ->
  for i = 0 to len - 1 do
    Array.unsafe_set d (o + i)
      (f (Array.unsafe_get a (ao + i)) (Array.unsafe_get b (bo + i)))
  done

let via_float f x = int_of_float (f (float_of_int x))

let via_float2 f x y = int_of_float (f (float_of_int x) (float_of_int y))

let int_un op : int un =
  int_un_loop
    (match op with
    | "Neg" -> fun x -> -x
    | "Abs" -> Stdlib.abs
    | "Sign" -> fun x -> if x > 0 then 1 else if x < 0 then -1 else 0
    | "Square" -> fun x -> x * x
    | "Relu" -> fun x -> if x > 0 then x else 0
    | "Exp" -> via_float Stdlib.exp
    | "Log" -> via_float Stdlib.log
    | "Sqrt" -> via_float Stdlib.sqrt
    | "Reciprocal" -> via_float (fun x -> 1.0 /. x)
    | "Sigmoid" -> via_float (fun x -> 1.0 /. (1.0 +. Stdlib.exp (-.x)))
    | "Tanh" -> via_float Stdlib.tanh
    | op -> invalid_arg ("Fused_eval: unknown unary " ^ op))

let int_bin op : int bin =
  int_bin_loop
    (match op with
    | "Add" -> ( + )
    | "Sub" -> ( - )
    | "Mul" -> ( * )
    | "Maximum" -> fun x y -> if x > y then x else y
    | "Minimum" -> fun x y -> if x < y then x else y
    | "ReluGrad" -> fun g v -> if v > 0 then g else 0
    | "Div" -> via_float2 ( /. )
    | "Pow" -> via_float2 ( ** )
    | "Mod" -> via_float2 floor_mod
    | op -> invalid_arg ("Fused_eval: unknown binary " ^ op))

let int_cmp op : int cmp =
  int_cmp_loop
    (match op with
    | "Equal" -> fun (x : int) y -> x = y
    | "Less" -> fun (x : int) y -> x < y
    | "Greater" -> fun (x : int) y -> x > y
    | "GreaterEqual" -> fun (x : int) y -> x >= y
    | op -> invalid_arg ("Fused_eval: unknown comparison " ^ op))

(* ------------------------------------------------------------------ *)
(* Programs                                                             *)

(* [Load (k, s)] views input k in slot s; [Un (s, f)] rewrites slot s;
   [Bin (s, f)] combines slots s and s+1 into s; [Cmp f], only at the
   root, writes the Bool output from slots 0 and 1. *)
type 'a step = Load of int * int | Un of int * 'a un | Bin of int * 'a bin | Cmp of 'a cmp

type program = {
  n_inputs : int;
  depth : int;
  compare : bool;
  (* A load runs after the first write to slot 0: an output buffer that
     aliases an input must then not serve as slot 0. *)
  late_load : bool;
  grain : int;
  fsteps : float step array;
  isteps : int step array;
}

(* Abstract steps in postfix order, shared by both element types. *)
type astep = L of int * int | U of string * int | B of string * int | C of string

let compile expr =
  let steps = ref [] and depth = ref 0 in
  let emit s = steps := s :: !steps in
  let rec go sp e =
    depth := Stdlib.max !depth (sp + 1);
    match e with
    | Input k ->
        if k < 0 then invalid_arg "Fused_eval.compile: negative input index";
        emit (L (k, sp))
    | Unary (op, a) ->
        if not (is_unary op) then
          invalid_arg ("Fused_eval.compile: unknown unary " ^ op);
        go sp a;
        emit (U (op, sp))
    | Binary (op, a, b) ->
        if not (is_binary op) then
          invalid_arg ("Fused_eval.compile: unknown binary " ^ op);
        go sp a;
        go (sp + 1) b;
        emit (B (op, sp))
  in
  let compare =
    match expr with
    | Binary (op, a, b) when is_compare op ->
        go 0 a;
        go 1 b;
        emit (C op);
        true
    | e ->
        go 0 e;
        false
  in
  let steps = Array.of_list (List.rev !steps) in
  let late_load =
    let wrote0 = ref false and late = ref false in
    Array.iter
      (function
        | U (_, 0) | B (_, 0) -> wrote0 := true
        | L _ -> if !wrote0 then late := true
        | U _ | B _ | C _ -> ())
      steps;
    !late
  in
  let to_steps un bin cmp =
    Array.map
      (function
        | L (k, s) -> Load (k, s)
        | U (op, s) -> Un (s, un op)
        | B (op, s) -> Bin (s, bin op)
        | C op -> Cmp (cmp op))
      steps
  in
  {
    n_inputs = num_inputs expr;
    depth = !depth;
    compare;
    late_load;
    grain =
      (if op_count expr > 1 then Tensor.elementwise_grain / 2
       else Tensor.elementwise_grain);
    fsteps = to_steps float_un float_bin float_cmp;
    isteps = to_steps int_un int_bin int_cmp;
  }

(* ------------------------------------------------------------------ *)
(* Running                                                              *)

(* How an input reaches the chunk at output positions [pos, pos+len). *)
type 'a source =
  | Direct of 'a array  (* the output's shape: viewed where it lies *)
  | Fill of 'a array  (* one element, repeated *)
  | Period of 'a array * int  (* suffix broadcast: element i mod p *)
  | Rows of 'a array * Tensor.bplan * int * bool
      (* general broadcast: per output row of the given length, the
         plan's base index, then a run (inner stride 1) or a fill *)

let chunk = 256

(* When [shape], less leading 1s, is a trailing suffix of [out_shape]
   (a bias [C] over [N;H;W;C]), output element i reads element
   i mod numel. *)
let suffix_period shape out_shape =
  let r = Array.length out_shape in
  let lead = ref 0 in
  while !lead < Array.length shape && shape.(!lead) = 1 do
    incr lead
  done;
  let len = Array.length shape - !lead in
  let rec matches d =
    d >= len || (shape.(!lead + d) = out_shape.(r - len + d) && matches (d + 1))
  in
  if len <= r && matches 0 then Some (Shape.numel shape) else None

let source (buf : 'a array) t out_shape n =
  let numel = Tensor.numel t in
  if numel = n then Direct buf
  else if numel = 1 then Fill buf
  else
    match suffix_period (Tensor.shape t) out_shape with
    | Some p -> Period (buf, p)
    | None ->
        let r = Array.length out_shape in
        let strides = Tensor.broadcast_strides t out_shape in
        Rows
          (buf, Tensor.broadcast_plan t out_shape, out_shape.(r - 1),
           strides.(r - 1) = 1)

(* Copy-only loads (blits and fills), so one polymorphic loader serves
   both element types without boxing per element. *)
let load src d pos len =
  match src with
  | Direct b -> Array.blit b pos d 0 len
  | Fill b -> Array.fill d 0 len b.(0)
  | Period (b, p) ->
      let j = ref 0 and s = ref (pos mod p) in
      while !j < len do
        let run = Stdlib.min (p - !s) (len - !j) in
        Array.blit b !s d !j run;
        j := !j + run;
        s := 0
      done
  | Rows (b, plan, inner, contiguous) ->
      let j = ref 0 in
      while !j < len do
        let q = pos + !j in
        let run = Stdlib.min (inner - (q mod inner)) (len - !j) in
        let base = Tensor.plan_index plan q in
        if contiguous then Array.blit b base d !j run
        else Array.fill d !j run b.(base);
        j := !j + run
      done

(* Per-shard state: the view (buffer, offset) of each stack slot, and
   scratch chunks allocated on first use. *)
type 'a shard = {
  vb : 'a array array;
  vo : int array;
  scratch : 'a array array;
  size : int;
  make : int -> 'a array;
}

let scratch_of st k =
  let s = st.scratch.(k) in
  if Array.length s > 0 then s
  else begin
    let s = st.make st.size in
    st.scratch.(k) <- s;
    s
  end

(* One shard: output positions [lo, hi) in chunks. Slot 0's results
   land in [out] unless [scratch0]. *)
let walk steps ~depth ~scratch0 ~compare ~clen srcs ~make (out : 'a array)
    (bout : bool array) lo hi =
  let st =
    {
      vb = Array.make depth out;
      vo = Array.make depth 0;
      scratch = Array.make depth [||];
      size = Stdlib.min clen (hi - lo);
      make;
    }
  in
  let vb = st.vb and vo = st.vo in
  let nsteps = Array.length steps in
  let pos = ref lo in
  while !pos < hi do
    let p = !pos in
    let len = Stdlib.min clen (hi - p) in
    for s = 0 to nsteps - 1 do
      match steps.(s) with
      | Load (k, slot) -> (
          match srcs.(k) with
          | Direct b ->
              vb.(slot) <- b;
              vo.(slot) <- p
          | Period (b, per) when (p mod per) + len <= per ->
              vb.(slot) <- b;
              vo.(slot) <- p mod per
          | src ->
              let d = scratch_of st slot in
              load src d p len;
              vb.(slot) <- d;
              vo.(slot) <- 0)
      | Un (slot, f) ->
          let d = if slot = 0 && not scratch0 then out else scratch_of st slot in
          let o = if d == out then p else 0 in
          f d o vb.(slot) vo.(slot) len;
          vb.(slot) <- d;
          vo.(slot) <- o
      | Bin (slot, f) ->
          let d = if slot = 0 && not scratch0 then out else scratch_of st slot in
          let o = if d == out then p else 0 in
          f d o vb.(slot) vo.(slot) vb.(slot + 1) vo.(slot + 1) len;
          vb.(slot) <- d;
          vo.(slot) <- o
      | Cmp f -> f vb.(0) vo.(0) vb.(1) vo.(1) bout p len
    done;
    if (not compare) && (vb.(0) != out || vo.(0) <> p) then
      Array.blit vb.(0) vo.(0) out p len;
    pos := p + len
  done

(* Walk the whole output: inline below the sharding grain (as
   [Parallel.parallel_for] would), else sharded. A chunk no longer than
   a bias-sized period lies inside one period, so that input is viewed
   in place too. *)
let walk_all p steps srcs ~make ~scratch0 out bout n =
  let clen =
    Array.fold_left
      (fun acc src ->
        match src with
        | Period (_, per) when per >= 64 && per < acc -> per
        | _ -> acc)
      chunk srcs
  in
  let depth = p.depth and compare = p.compare in
  if n <= p.grain then
    walk steps ~depth ~scratch0 ~compare ~clen srcs ~make out bout 0 n
  else
    Parallel.parallel_for ~grain:p.grain n (fun lo hi ->
        walk steps ~depth ~scratch0 ~compare ~clen srcs ~make out bout lo hi)

let dtype_mismatch a b =
  invalid_arg
    (Printf.sprintf "Fused_eval.run: dtype mismatch %s vs %s"
       (Dtype.to_string a) (Dtype.to_string b))

let run ?out p inputs =
  let n_in = Array.length inputs in
  if n_in = 0 || n_in < p.n_inputs then
    invalid_arg "Fused_eval.run: expression references missing inputs";
  let dtype = Tensor.dtype inputs.(0) in
  let out_shape = ref (Tensor.shape inputs.(0)) and all_int = ref true in
  for k = 0 to n_in - 1 do
    let t = inputs.(k) in
    if not (Shape.equal (Tensor.shape t) !out_shape) then
      out_shape := Shape.broadcast !out_shape (Tensor.shape t);
    (match t.Tensor.buf with Tensor.Int_buf _ -> () | _ -> all_int := false);
    if (not p.compare) && not (Dtype.equal (Tensor.dtype t) dtype) then
      dtype_mismatch dtype (Tensor.dtype t)
  done;
  let out_shape = !out_shape in
  let n = Shape.numel out_shape in
  let bout = if p.compare then Array.make n false else [||] in
  if !all_int then begin
    let srcs =
      Array.map (fun t -> source (Tensor.int_buffer t) t out_shape n) inputs
    in
    let out = if p.compare then [||] else Array.make n 0 in
    (* A comparison has no value output: slot 0 computes in scratch. *)
    walk_all p p.isteps srcs ~make:(fun k -> Array.make k 0)
      ~scratch0:p.compare out bout n;
    if p.compare then Tensor.of_bool_array out_shape bout
    else Tensor.create dtype out_shape (Tensor.Int_buf out)
  end
  else if p.compare || Dtype.is_floating dtype then begin
    (* Comparisons accept any numeric or bool operands, read as float. *)
    let srcs =
      Array.map
        (fun t ->
          let buf =
            match t.Tensor.buf with
            | Tensor.Float_buf b -> b
            | _ -> Tensor.to_float_array t
          in
          source buf t out_shape n)
        inputs
    in
    if p.compare then begin
      walk_all p p.fsteps srcs ~make:Array.create_float ~scratch0:true [||]
        bout n;
      Tensor.of_bool_array out_shape bout
    end
    else begin
      let out = Tensor.use_or_alloc out n in
      let scratch0 =
        p.late_load
        && Array.exists
             (fun t ->
               match t.Tensor.buf with
               | Tensor.Float_buf b -> b == out
               | _ -> false)
             inputs
      in
      walk_all p p.fsteps srcs ~make:Array.create_float ~scratch0 out bout n;
      Tensor.create dtype out_shape (Tensor.Float_buf out)
    end
  end
  else
    invalid_arg
      ("Fused_eval.run: unsupported dtype " ^ Dtype.to_string dtype)
