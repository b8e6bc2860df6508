(* The elementwise engine (Fused_eval) against an independent oracle.
   Every formula below is written out here, per element, over a naive
   broadcast index — nothing is taken from the engine — and compared bit
   for bit (any NaN matches any NaN; -0.0 and +0.0 differ). Cases cover
   every unary and binary op, the comparisons, AddN and a few multi-op
   expressions; identity, scalar, suffix-period and general broadcasts;
   sizes around the 256-element chunk, 1024 and past
   [Tensor.elementwise_grain]; NaN, -0.0 and infinities; I32/I64
   arithmetic including truncating division; in-place output grants;
   and 1 and 4 intra-op threads. *)

open Octf_tensor
module F = Fused_eval

(* ------------------------------------------------------------------ *)
(* Reference formulas                                                   *)

let ref_max a b =
  if Float.is_nan a || Float.is_nan b then Float.nan
  else if a > b then a
  else if b > a then b
  else if Float.sign_bit a then b
  else a

let ref_min a b =
  if Float.is_nan a || Float.is_nan b then Float.nan
  else if a < b then a
  else if b < a then b
  else if Float.sign_bit a then a
  else b

let ref_unary op x =
  match op with
  | "Neg" -> Float.copy_sign x (if Float.sign_bit x then 1.0 else -1.0)
  | "Abs" -> if Float.sign_bit x then -.x else x
  | "Sign" -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0
  | "Exp" -> exp x
  | "Log" -> log x
  | "Sqrt" -> sqrt x
  | "Square" -> x *. x
  | "Reciprocal" -> 1.0 /. x
  | "Relu" -> if Float.is_nan x then x else if x > 0.0 then x else 0.0
  | "Sigmoid" -> 1.0 /. (1.0 +. exp (-.x))
  | "Tanh" -> tanh x
  | op -> failwith ("no reference for " ^ op)

let ref_binary op a b =
  match op with
  | "Add" -> a +. b
  | "Sub" -> a -. b
  | "Mul" -> a *. b
  | "Div" -> a /. b
  | "Pow" -> Float.pow a b
  | "Mod" ->
      let r = Float.rem a b in
      if r <> 0.0 && r < 0.0 <> (b < 0.0) then r +. b else r
  | "Maximum" -> ref_max a b
  | "Minimum" -> ref_min a b
  | "ReluGrad" -> if b > 0.0 then a else 0.0
  | op -> failwith ("no reference for " ^ op)

let ref_compare op (a : float) b =
  match op with
  | "Equal" -> a = b
  | "Less" -> a < b
  | "Greater" -> a > b
  | "GreaterEqual" -> a >= b
  | op -> failwith ("no reference for " ^ op)

(* Integers: exact arithmetic; division and modulo floor or truncate as
   the float formulas do on values far below 2^53. *)
let ref_int_unary op x =
  match op with
  | "Neg" -> -x
  | "Abs" -> if x < 0 then -x else x
  | "Sign" -> compare x 0
  | "Square" -> x * x
  | "Relu" -> if x > 0 then x else 0
  | op -> failwith ("no int reference for " ^ op)

let ref_int_binary op a b =
  match op with
  | "Add" -> a + b
  | "Sub" -> a - b
  | "Mul" -> a * b
  | "Maximum" -> if a > b then a else b
  | "Minimum" -> if a < b then a else b
  | "ReluGrad" -> if b > 0 then a else 0
  | "Div" -> a / b
  | "Mod" ->
      let r = a mod b in
      if r <> 0 && r < 0 <> (b < 0) then r + b else r
  | op -> failwith ("no int reference for " ^ op)

let ref_int_compare op (a : int) b =
  match op with
  | "Equal" -> a = b
  | "Less" -> a < b
  | "Greater" -> a > b
  | "GreaterEqual" -> a >= b
  | op -> failwith ("no reference for " ^ op)

(* ------------------------------------------------------------------ *)
(* Naive broadcasting                                                   *)

let broadcast_shape shapes =
  let r = List.fold_left (fun acc s -> max acc (Array.length s)) 0 shapes in
  Array.init r (fun d ->
      List.fold_left
        (fun acc s ->
          let k = d - (r - Array.length s) in
          if k < 0 then acc else max acc s.(k))
        1 shapes)

(* Flat index into [shape] of output element [i] of [out]. *)
let source_index shape out i =
  let r = Array.length out and rs = Array.length shape in
  let idx = Array.make r 0 in
  let rem = ref i in
  for d = r - 1 downto 0 do
    idx.(d) <- !rem mod out.(d);
    rem := !rem / out.(d)
  done;
  let flat = ref 0 in
  for k = 0 to rs - 1 do
    let d = k + (r - rs) in
    flat := (!flat * shape.(k)) + if shape.(k) = 1 then 0 else idx.(d)
  done;
  !flat

(* Reference evaluation of an expression per element. *)
let rec ref_eval_f e (inputs : Tensor.t array) out i =
  match e with
  | F.Input k ->
      let t = inputs.(k) in
      Tensor.flat_get_f t (source_index (Tensor.shape t) out i)
  | F.Unary (op, a) -> ref_unary op (ref_eval_f a inputs out i)
  | F.Binary (op, a, b) ->
      ref_binary op (ref_eval_f a inputs out i) (ref_eval_f b inputs out i)

let rec ref_eval_i e (inputs : Tensor.t array) out i =
  match e with
  | F.Input k ->
      let t = inputs.(k) in
      Tensor.flat_get_i t (source_index (Tensor.shape t) out i)
  | F.Unary (op, a) -> ref_int_unary op (ref_eval_i a inputs out i)
  | F.Binary (op, a, b) ->
      ref_int_binary op (ref_eval_i a inputs out i) (ref_eval_i b inputs out i)

let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Compare the engine's result with the reference; a description of the
   first mismatch, or None. *)
let mismatch expr inputs (got : Tensor.t) =
  let out = broadcast_shape (Array.to_list (Array.map Tensor.shape inputs)) in
  let n = Shape.numel out in
  if not (Shape.equal (Tensor.shape got) out) then
    Some
      (Printf.sprintf "shape %s, want %s"
         (Shape.to_string (Tensor.shape got))
         (Shape.to_string out))
  else
    let bad = ref None in
    let dtype = Tensor.dtype inputs.(0) in
    let ints = Dtype.is_integer dtype in
    for i = n - 1 downto 0 do
      let ok, show =
        match expr with
        | F.Binary (op, F.Input a, F.Input b) when F.is_compare op ->
            let want =
              if ints then
                ref_int_compare op
                  (ref_eval_i (F.Input a) inputs out i)
                  (ref_eval_i (F.Input b) inputs out i)
              else
                ref_compare op
                  (ref_eval_f (F.Input a) inputs out i)
                  (ref_eval_f (F.Input b) inputs out i)
            in
            let g = (Tensor.bool_buffer got).(i) in
            (g = want, Printf.sprintf "%b, want %b" g want)
        | _ when ints ->
            let want = ref_eval_i expr inputs out i in
            let g = (Tensor.int_buffer got).(i) in
            (g = want, Printf.sprintf "%d, want %d" g want)
        | _ ->
            let want = ref_eval_f expr inputs out i in
            let g = (Tensor.float_buffer got).(i) in
            (same_float g want, Printf.sprintf "%h, want %h" g want)
      in
      if not ok then bad := Some (Printf.sprintf "element %d: %s" i show)
    done;
    !bad

(* ------------------------------------------------------------------ *)
(* Generated cases                                                      *)

let sizes = [ 1; 7; 255; 256; 257; 1023; 1024; 1025; Tensor.elementwise_grain + 3 ]

(* Operand shapes around size n: identity, scalar either side, suffix
   periods (n and 4) either side, and general broadcasts. *)
let shape_pairs n =
  [
    ("identity", [| n |], [| n |]);
    ("scalar-right", [| n |], [||]);
    ("scalar-left", [||], [| n |]);
    ("suffix-right", [| 3; n |], [| n |]);
    ("suffix-small", [| n; 4 |], [| 4 |]);
    ("suffix-left", [| 1; n |], [| 3; 1; n |]);
    ("general", [| 4; 1 |], [| 1; 5 |]);
    ("general-rows", [| n; 1 |], [| 1; 3 |]);
    ("general-inner", [| 2; 1; n |], [| 2; 3; n |]);
  ]

let special = [| Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity; 1.0; -1.0 |]

let float_tensor rng dtype shape =
  let n = Shape.numel shape in
  Tensor.of_float_array ~dtype shape
    (Array.init n (fun _ ->
         if Rng.int rng 5 = 0 then special.(Rng.int rng (Array.length special))
         else Rng.uniform rng ~lo:(-4.0) ~hi:4.0))

(* Nonzero for the divisors of Div and Mod. *)
let int_tensor ?(nonzero = false) rng dtype shape =
  let n = Shape.numel shape in
  Tensor.of_int_array ~dtype shape
    (Array.init n (fun _ ->
         let v = Rng.int rng 2001 - 1000 in
         if nonzero && v = 0 then 7 else v))

let with_threads n f =
  let saved = Parallel.threads () in
  Parallel.set_threads n;
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) f

let int_unaries = [ "Neg"; "Abs"; "Sign"; "Square"; "Relu" ]

let int_binaries =
  [ "Add"; "Sub"; "Mul"; "Maximum"; "Minimum"; "ReluGrad"; "Div"; "Mod" ]

(* A few multi-op expressions over three inputs; the second reads input
   0 again after writing the bottom slot, the case in-place grants must
   not corrupt. *)
let multi_exprs =
  F.
    [
      Binary ("Add", Binary ("Mul", Unary ("Sigmoid", Input 0), Input 1), Unary ("Tanh", Input 2));
      Binary ("Sub", Unary ("Neg", Input 0), Binary ("Maximum", Input 1, Input 0));
      Binary ("ReluGrad", Binary ("Add", Input 0, Input 1), Unary ("Square", Input 2));
      Binary ("Div", Input 2, Binary ("Minimum", Unary ("Abs", Input 1), Input 0));
    ]

let int_multi_exprs =
  F.
    [
      Binary ("Sub", Unary ("Neg", Input 0), Binary ("Maximum", Input 1, Input 0));
      Binary ("Mul", Binary ("Add", Input 0, Input 1), Unary ("Relu", Input 2));
    ]

type case = {
  name : string;
  expr : F.expr;
  inputs : Tensor.t array;
  grant : int option;  (* pass input k's buffer as the output *)
  threads : int;
}

let gen_case =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = oneofl sizes in
    let* threads = oneofl [ 1; 4 ] in
    let* kind = int_bound 5 in
    let* float_dt = oneofl [ Dtype.F32; Dtype.F64 ] in
    let* int_dt = oneofl [ Dtype.I32; Dtype.I64 ] in
    let* pick = int_bound 1000 in
    let* grant = bool in
    let rng = Rng.create seed in
    let pairs = shape_pairs n in
    let label, sa, sb = List.nth pairs (pick mod List.length pairs) in
    let nth l = List.nth l (pick mod List.length l) in
    let ft s = float_tensor rng float_dt s in
    let grant_of inputs k =
      (* A grant is only ever the output's own size. *)
      let out = broadcast_shape (Array.to_list (Array.map Tensor.shape inputs)) in
      if grant && Shape.equal (Tensor.shape inputs.(k)) out then Some k else None
    in
    return
      (match kind with
      | 0 ->
          let op = nth [ "Neg"; "Abs"; "Sign"; "Exp"; "Log"; "Sqrt"; "Square";
                         "Reciprocal"; "Relu"; "Sigmoid"; "Tanh" ] in
          let inputs = [| ft sa |] in
          { name = op ^ "/" ^ label; expr = F.Unary (op, F.Input 0); inputs;
            grant = grant_of inputs 0; threads }
      | 1 ->
          let op = nth [ "Add"; "Sub"; "Mul"; "Div"; "Pow"; "Mod"; "Maximum";
                         "Minimum"; "ReluGrad" ] in
          let inputs = [| ft sa; ft sb |] in
          { name = op ^ "/" ^ label; expr = F.Binary (op, F.Input 0, F.Input 1);
            inputs; grant = grant_of inputs (pick mod 2); threads }
      | 2 ->
          let op = nth [ "Equal"; "Less"; "Greater"; "GreaterEqual" ] in
          let ints = pick mod 3 = 0 in
          let mk s = if ints then int_tensor rng int_dt s else ft s in
          let a = mk sa in
          (* Equal needs equal elements to show: compare with a copy. *)
          let b = if pick mod 2 = 0 && Shape.equal sa sb then Tensor.copy a else mk sb in
          { name = op ^ "/" ^ label; expr = F.Binary (op, F.Input 0, F.Input 1);
            inputs = [| a; b |]; grant = None; threads }
      | 3 ->
          let k = 2 + (pick mod 4) in
          let inputs = Array.init k (fun j -> ft (if j mod 2 = 0 then sa else sb)) in
          { name = Printf.sprintf "AddN%d/%s" k label; expr = F.add_n k; inputs;
            grant = grant_of inputs 0; threads }
      | 4 ->
          let expr = nth multi_exprs in
          let inputs = [| ft sa; ft sb; ft sa |] in
          { name = "multi/" ^ label; expr; inputs; grant = grant_of inputs 0; threads }
      | _ ->
          let it ?nonzero s = int_tensor ?nonzero rng int_dt s in
          if pick mod 3 = 0 then
            let op = nth int_unaries in
            { name = "int " ^ op ^ "/" ^ label; expr = F.Unary (op, F.Input 0);
              inputs = [| it sa |]; grant = None; threads }
          else if pick mod 3 = 1 then
            let op = nth int_binaries in
            let nonzero = op = "Div" || op = "Mod" in
            { name = "int " ^ op ^ "/" ^ label;
              expr = F.Binary (op, F.Input 0, F.Input 1);
              inputs = [| it sa; it ~nonzero sb |]; grant = None; threads }
          else
            { name = "int multi/" ^ label; expr = nth int_multi_exprs;
              inputs = [| it sa; it sb; it sa |]; grant = None; threads }))

let print_case c =
  Printf.sprintf "%s, %s, %d threads, grant %s" c.name
    (String.concat " x "
       (Array.to_list
          (Array.map
             (fun t ->
               Dtype.to_string (Tensor.dtype t) ^ Shape.to_string (Tensor.shape t))
             c.inputs)))
    c.threads
    (match c.grant with Some k -> string_of_int k | None -> "none")

let run_case c =
  let p = F.compile c.expr in
  with_threads c.threads @@ fun () ->
  match c.grant with
  | None -> F.run p c.inputs
  | Some k ->
      (* The granted input is a private copy; the reference reads the
         original, and the result must land in the granted buffer. *)
      let inputs = Array.copy c.inputs in
      inputs.(k) <- Tensor.copy c.inputs.(k);
      let out = Tensor.float_buffer inputs.(k) in
      let got = F.run ~out p inputs in
      if Tensor.float_buffer got != out then
        failwith "granted output buffer was not used";
      got

let prop_oracle =
  QCheck.Test.make ~count:300 ~name:"engine matches the per-element oracle"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      match mismatch c.expr c.inputs (run_case c) with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s: %s" (print_case c) msg)

(* Every op and every shape kind at least once, deterministically (the
   property samples; this sweeps). *)
let test_sweep () =
  let rng = Rng.create 3 in
  List.iter
    (fun n ->
      List.iter
        (fun (label, sa, sb) ->
          let a = float_tensor rng Dtype.F32 sa and b = float_tensor rng Dtype.F32 sb in
          let check expr inputs =
            List.iter
              (fun threads ->
                let got =
                  with_threads threads (fun () -> F.run (F.compile expr) inputs)
                in
                match mismatch expr inputs got with
                | None -> ()
                | Some msg -> Alcotest.failf "%s n=%d %d threads: %s" label n threads msg)
              [ 1; 4 ]
          in
          List.iter
            (fun op -> check (F.Unary (op, F.Input 0)) [| a |])
            [ "Neg"; "Abs"; "Sign"; "Exp"; "Log"; "Sqrt"; "Square"; "Reciprocal";
              "Relu"; "Sigmoid"; "Tanh" ];
          List.iter
            (fun op -> check (F.Binary (op, F.Input 0, F.Input 1)) [| a; b |])
            [ "Add"; "Sub"; "Mul"; "Div"; "Pow"; "Mod"; "Maximum"; "Minimum";
              "ReluGrad"; "Equal"; "Less"; "Greater"; "GreaterEqual" ];
          check (F.add_n 3) [| a; b; a |])
        (shape_pairs n))
    [ 255; 1025 ]

(* ------------------------------------------------------------------ *)
(* I64 exactness above 2^53                                             *)

let big = (1 lsl 53) + 1

let i64 v = Tensor.of_int_array ~dtype:Dtype.I64 [| 1 |] [| v |]

let test_i64_exact () =
  let get t = (Tensor.int_buffer t).(0) in
  Alcotest.(check int) "add 2^53+1 + 0" big (get (Tensor_ops.add (i64 big) (i64 0)));
  Alcotest.(check int) "sub" big (get (Tensor_ops.sub (i64 (big + 1)) (i64 1)));
  Alcotest.(check int) "mul" big (get (Tensor_ops.mul (i64 big) (i64 1)));
  Alcotest.(check int) "maximum" big
    (get (Tensor_ops.maximum (i64 big) (i64 (1 lsl 53))));
  Alcotest.(check int) "minimum" (1 lsl 53)
    (get (Tensor_ops.minimum (i64 big) (i64 (1 lsl 53))));
  let b t = (Tensor.bool_buffer t).(0) in
  Alcotest.(check bool) "equal 2^53+1 vs 2^53" false
    (b (Tensor_ops.equal (i64 big) (i64 (1 lsl 53))));
  Alcotest.(check bool) "less" true (b (Tensor_ops.less (i64 (1 lsl 53)) (i64 big)));
  Alcotest.(check bool) "greater" true
    (b (Tensor_ops.greater (i64 big) (i64 (1 lsl 53))));
  Alcotest.(check bool) "greater_equal" false
    (b (Tensor_ops.greater_equal (i64 (1 lsl 53)) (i64 big)));
  Alcotest.(check string) "comparison dtype" "bool"
    (Dtype.to_string (Tensor.dtype (Tensor_ops.less (i64 1) (i64 2))))

(* AddN and a fused expression over the same values agree with the
   standalone ops, above 2^53 too. *)
let test_i64_fused_matches_unfused () =
  let x = Tensor.of_int_array ~dtype:Dtype.I64 [| 3 |] [| big; -big; 5 |] in
  let y = Tensor.of_int_array ~dtype:Dtype.I64 [| 3 |] [| 2; 1 lsl 60; -7 |] in
  let unfused = Tensor_ops.maximum (Tensor_ops.sub (Tensor_ops.add x y) x) x in
  let fused =
    F.run
      (F.compile
         F.(Binary ("Maximum", Binary ("Sub", Binary ("Add", Input 0, Input 1), Input 0), Input 0)))
      [| x; y |]
  in
  Alcotest.(check bool) "bit-identical" true (Tensor.equal unfused fused);
  Alcotest.(check (array int)) "values" [| big; 1 lsl 60; 5 |] (Tensor.int_buffer fused);
  let sum = F.run (F.compile (F.add_n 3)) [| x; y; x |] in
  Alcotest.(check (array int)) "AddN" [| (2 * big) + 2; (1 lsl 60) - (2 * big); 3 |]
    (Tensor.int_buffer sum)

(* Comparisons write Bool directly, whatever the operand dtypes. *)
let test_compare_mixed () =
  let f = Tensor.of_float_array [| 3 |] [| 1.0; 2.5; Float.nan |] in
  let i = Tensor.of_int_array [| 3 |] [| 1; 2; 3 |] in
  Alcotest.(check (array bool)) "float vs int" [| true; false; false |]
    (Tensor.bool_buffer (Tensor_ops.equal f i));
  let a = Tensor.of_int_array ~dtype:Dtype.I32 [| 2 |] [| 4; big |] in
  let b = Tensor.of_int_array ~dtype:Dtype.I64 [| 2 |] [| 4; big - 1 |] in
  Alcotest.(check (array bool)) "i32 vs i64 exact" [| true; false |]
    (Tensor.bool_buffer (Tensor_ops.equal a b))

(* A comparison over sub-expressions computes them in scratch. *)
let test_compare_of_expressions () =
  let rng = Rng.create 8 in
  List.iter
    (fun dtype ->
      let mk () =
        if Dtype.is_floating dtype then float_tensor rng dtype [| 300 |]
        else int_tensor rng dtype [| 300 |]
      in
      let x = mk () and y = mk () in
      let p =
        F.(compile (Binary ("Less", Unary ("Neg", Input 0), Binary ("Add", Input 1, Input 0))))
      in
      let got = Tensor.bool_buffer (F.run p [| x; y |]) in
      Array.iteri
        (fun i g ->
          let want =
            if Dtype.is_floating dtype then
              let a = Tensor.flat_get_f x i and b = Tensor.flat_get_f y i in
              ref_compare "Less" (ref_unary "Neg" a) (b +. a)
            else
              let a = Tensor.flat_get_i x i and b = Tensor.flat_get_i y i in
              -a < b + a
          in
          if g <> want then Alcotest.failf "%s element %d" (Dtype.to_string dtype) i)
        got)
    [ Dtype.F32; Dtype.I64 ]

let test_mixed_dtype_raises () =
  Alcotest.check_raises "mixed"
    (Invalid_argument "Fused_eval.run: dtype mismatch int64 vs int32")
    (fun () ->
      ignore (Tensor_ops.add (i64 1) (Tensor.of_int_array [| 1 |] [| 1 |])))

let suite =
  [
    Alcotest.test_case "every op and shape kind against the oracle" `Quick test_sweep;
    Alcotest.test_case "I64 ops exact above 2^53" `Quick test_i64_exact;
    Alcotest.test_case "I64 fused equals unfused above 2^53" `Quick
      test_i64_fused_matches_unfused;
    Alcotest.test_case "comparisons of mixed operands" `Quick test_compare_mixed;
    Alcotest.test_case "comparison of sub-expressions" `Quick
      test_compare_of_expressions;
    Alcotest.test_case "mixed arithmetic dtypes raise" `Quick test_mixed_dtype_raises;
    QCheck_alcotest.to_alcotest prop_oracle;
  ]
