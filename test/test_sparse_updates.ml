(* Sparse updates end to end (§4.2): the scatter kernels on integer
   tables, UniqueSegmentSum against a naive reference, the fused
   SparseApplyAdagrad kernel, and optimizer results that must equal, bit
   for bit, the dense recipe they replace (densify the gradient, clip
   it densely, update every row). *)

open Octf_tensor
open Octf
module B = Builder
module O = Tensor_ops
module G = Gradients
module Vs = Octf_nn.Var_store
module Opt = Octf_train.Optimizer

let big = (1 lsl 53) + 1

let bits t =
  match t.Tensor.buf with
  | Tensor.Float_buf a -> Array.map Int64.bits_of_float a
  | Tensor.Int_buf a -> Array.map Int64.of_int a
  | _ -> Alcotest.fail "bits: unexpected dtype"

let check_bits what expected actual =
  Alcotest.(check (array int)) (what ^ " shape") (Tensor.shape expected)
    (Tensor.shape actual);
  if bits expected <> bits actual then
    Alcotest.failf "%s: %s <> %s" what (Tensor.to_string expected)
      (Tensor.to_string actual)

let fails_with what substring f =
  let contains s =
    let n = String.length substring in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = substring || at (i + 1))
    in
    at 0
  in
  match f () with
  | _ -> Alcotest.failf "%s: expected a failure" what
  | exception Invalid_argument m when contains m -> ()
  | exception Session.Run_error f when contains (Step_failure.to_string f) ->
      ()

(* ------------------------------------------------------------------ *)
(* Scatter kernels on integer tables                                   *)
(* ------------------------------------------------------------------ *)

(* An I64 [3; 2] variable updated by [op] at rows [1; 1] with [upd]. *)
let run_int_scatter op upd =
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.I64 ~shape:[| 3; 2 |] () in
  let init =
    B.assign b v
      (B.const b
         (Tensor.of_int_array ~dtype:Dtype.I64 [| 3; 2 |]
            [| big; 1; big; -big; 7; 8 |]))
  in
  let idx = B.const b (Tensor.of_int_array [| 2 |] [| 1; 1 |]) in
  let u = B.const b (Tensor.of_int_array ~dtype:Dtype.I64 [| 2; 2 |] upd) in
  let update = op b v idx u in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  Session.run_unit s [ update ];
  Tensor.to_int_array (List.hd (Session.run s [ B.read b v ]))

let test_int_scatter_add () =
  (* Adding 0 to a row holding 2^53 + 1 must leave it exact. *)
  Alcotest.(check (array int)) "exact I64 rows"
    [| big; 1; big; -big; 7; 8 |]
    (run_int_scatter (fun b v i u -> B.scatter_add b v i u) [| 0; 0; 0; 0 |])

let test_int_scatter_sub () =
  Alcotest.(check (array int)) "I64 ScatterSub"
    [| big; 1; big - 3; -big - 7; 7; 8 |]
    (run_int_scatter (fun b v i u -> B.scatter_sub b v i u) [| 1; 2; 2; 5 |])

let test_scatter_checks () =
  let acc = Tensor.zeros Dtype.F32 [| 3; 2 |] in
  let upd = Tensor.ones Dtype.F32 [| 2; 2 |] in
  fails_with "index out of range" "out of range" (fun () ->
      O.scatter_add acc (Tensor.of_int_array [| 2 |] [| 0; 3 |]) upd);
  fails_with "bool named" "bool" (fun () ->
      O.scatter_sub
        (Tensor.of_bool_array [| 2 |] [| true; false |])
        (Tensor.of_int_array [| 1 |] [| 0 |])
        (Tensor.of_bool_array [| 1 |] [| true |]));
  fails_with "mixed dtypes" "dtype mismatch" (fun () ->
      O.scatter_add acc
        (Tensor.of_int_array [| 2 |] [| 0; 1 |])
        (Tensor.ones Dtype.I64 [| 2; 2 |]))

(* ------------------------------------------------------------------ *)
(* UniqueSegmentSum against a naive reference                          *)
(* ------------------------------------------------------------------ *)

(* Sorted distinct indices; each row summed from +0.0 in order of
   occurrence, one element at a time. *)
let ref_unique_segment_sum idx (values : float array) rs =
  let uniq = List.sort_uniq compare (Array.to_list idx) in
  let sums =
    List.concat_map
      (fun u ->
        let row = Array.make rs 0.0 in
        Array.iteri
          (fun i x ->
            if x = u then
              for j = 0 to rs - 1 do
                row.(j) <- row.(j) +. values.((i * rs) + j)
              done)
          idx;
        Array.to_list row)
      uniq
  in
  (Array.of_list uniq, Array.of_list sums)

type uss_case = {
  idx_dtype : Dtype.t;
  idx_shape : Shape.t;
  idx : int array;
  tail : Shape.t;
  vals : float array;
}

let uss_gen =
  let open QCheck.Gen in
  oneofl [ Dtype.I32; Dtype.I64 ] >>= fun idx_dtype ->
  frequency
    [
      (3, map (fun n -> [| n |]) (int_bound 12));
      (1, pair (int_range 1 3) (int_bound 4) >|= fun (a, b) -> [| a; b |]);
      (1, return [||]);
      (1, map (fun n -> [| n |]) (int_range 250 330));
    ]
  >>= fun idx_shape ->
  let n = Shape.numel idx_shape in
  (if n > 100 then return [| 32 |]
   else oneofl [ [||]; [| 3 |]; [| 2; 2 |] ])
  >>= fun tail ->
  int_range 1 (max 1 (n / 2) + 2) >>= fun range ->
  array_repeat n (int_bound (range - 1)) >>= fun idx ->
  array_repeat (n * Shape.numel tail)
    (frequency
       [
         (6, float_range (-10.0) 10.0);
         (1, return 0.0);
         (1, return (-0.0));
         (1, return Float.nan);
         (1, return Float.infinity);
       ])
  >|= fun vals -> { idx_dtype; idx_shape; idx; tail; vals }

let print_uss c =
  Printf.sprintf "%s%s [%s] tail %s values [%s]"
    (Dtype.to_string c.idx_dtype) (Shape.to_string c.idx_shape)
    (String.concat ";" (Array.to_list (Array.map string_of_int c.idx)))
    (Shape.to_string c.tail)
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") c.vals)))

let with_threads n f =
  let saved = Parallel.threads () in
  Parallel.set_threads n;
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) f

let uss_props =
  List.map
    (fun threads ->
      QCheck.Test.make ~count:150
        ~name:(Printf.sprintf "UniqueSegmentSum matches reference (%d thread%s)"
                 threads (if threads = 1 then "" else "s"))
        (QCheck.make ~print:print_uss uss_gen)
        (fun c ->
          with_threads threads (fun () ->
              let indices =
                Tensor.of_int_array ~dtype:c.idx_dtype c.idx_shape c.idx
              in
              let values =
                Tensor.of_float_array (Array.append c.idx_shape c.tail) c.vals
              in
              let u, s = O.unique_segment_sum indices values in
              let ru, rs = ref_unique_segment_sum c.idx c.vals (Shape.numel c.tail) in
              Dtype.equal (Tensor.dtype u) c.idx_dtype
              && Tensor.shape u = [| Array.length ru |]
              && Tensor.to_int_array u = ru
              && Tensor.shape s = Array.append [| Array.length ru |] c.tail
              && Array.map Int64.bits_of_float (Tensor.to_float_array s)
                 = Array.map Int64.bits_of_float rs)))
    [ 1; 4 ]

let test_uss_int_values () =
  let indices = Tensor.of_int_array [| 3 |] [| 2; 0; 2 |] in
  let values =
    Tensor.of_int_array ~dtype:Dtype.I64 [| 3 |] [| big; 5; 0 |]
  in
  let u, s = O.unique_segment_sum indices values in
  Alcotest.(check (array int)) "unique" [| 0; 2 |] (Tensor.to_int_array u);
  Alcotest.(check (array int)) "exact sums" [| 5; big |] (Tensor.to_int_array s)

(* ------------------------------------------------------------------ *)
(* The fused SparseApplyAdagrad kernel                                 *)
(* ------------------------------------------------------------------ *)

let adagrad_graph ids =
  let b = B.create () in
  let var = B.variable b ~name:"var" ~dtype:Dtype.F32 ~shape:[| 4; 2 |] () in
  let acc = B.variable b ~name:"acc" ~dtype:Dtype.F32 ~shape:[| 4; 2 |] () in
  let init =
    B.group b
      [
        B.assign b var
          (B.const b (Tensor.init_f [| 4; 2 |] (fun i -> float_of_int (i.(0) + i.(1)))));
        B.assign b acc (B.const b (Tensor.full Dtype.F32 [| 4; 2 |] 0.5));
      ]
  in
  let n = Array.length ids in
  let update =
    B.sparse_apply_adagrad b ~epsilon:1e-8 var acc ~lr:(B.const_f b 0.1)
      (B.const b (Tensor.of_int_array [| n |] ids))
      (B.const b (Tensor.full Dtype.F32 [| n; 2 |] 1.0))
  in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  (b, s, var, acc, update)

let test_adagrad_rejects_indices () =
  List.iter
    (fun (what, ids, msg) ->
      let b, s, var, acc, update = adagrad_graph ids in
      let before = Session.run s [ B.read b var; B.read b acc ] in
      fails_with what msg (fun () -> Session.run_unit s [ update ]);
      let after = Session.run s [ B.read b var; B.read b acc ] in
      List.iter2 (check_bits (what ^ ": state unchanged")) before after)
    [
      ("unsorted", [| 2; 1 |], "strictly increasing");
      ("duplicate", [| 1; 1 |], "strictly increasing");
      ("out of range", [| 1; 4 |], "out of range");
      ("negative", [| -1; 2 |], "out of range");
    ]

let test_adagrad_keeps_snapshots () =
  let b, s, var, acc, update = adagrad_graph [| 0; 3 |] in
  let read_var = B.read b var and read_acc = B.read b acc in
  let before = Session.run s [ read_var; read_acc ] in
  let saved = List.map Tensor.copy before in
  Session.run_unit s [ update ];
  List.iter2 (check_bits "earlier Read unchanged") saved before;
  let after = Session.run s [ read_var; read_acc ] in
  Alcotest.(check bool) "update landed" true
    (bits (List.hd after) <> bits (List.hd before));
  (* Rows 1 and 2 are untouched. *)
  let v = List.hd after in
  Alcotest.(check (float 0.)) "row 1" 1.0 (Tensor.get_f v [| 1; 0 |]);
  Alcotest.(check (float 0.)) "row 2" 3.0 (Tensor.get_f v [| 2; 1 |])

(* ------------------------------------------------------------------ *)
(* Optimizers: bit for bit against the dense recipe                    *)
(* ------------------------------------------------------------------ *)

let vocab = 10

let dim = 3

(* A two-shard embedding and a dense projection; ids repeat within and
   across the two lookups, so sparse gradients carry duplicate rows. *)
let build_model () =
  let b = B.create () in
  let store = Vs.create ~seed:5 b in
  let emb =
    Octf_nn.Embedding.create store ~name:"emb" ~vocab ~dim ~num_shards:2 ()
  in
  let proj = Vs.get store ~name:"proj" [| dim; 2 |] in
  let ids = B.placeholder b ~name:"ids" ~shape:[| 6 |] Dtype.I32 in
  let ids2 = B.placeholder b ~name:"ids2" ~shape:[| 6 |] Dtype.I32 in
  let rows =
    B.add b
      (Octf_nn.Embedding.lookup emb b ids)
      (Octf_nn.Embedding.lookup emb b ids2)
  in
  let out = B.matmul b rows proj.Vs.read in
  let loss =
    B.reduce_sum b (B.square b (B.sub b out (B.const_f b 0.7)))
  in
  (b, store, loss, ids, ids2)

let feeds_for step (ids, ids2) =
  let a = Array.init 6 (fun i -> ((step * 3) + (i * i)) mod vocab) in
  let c = Array.init 6 (fun i -> if i < 3 then a.(i) else (step + i) mod vocab) in
  [
    (ids, Tensor.of_int_array [| 6 |] a); (ids2, Tensor.of_int_array [| 6 |] c);
  ]

let dense_clip b ~clip_norm g =
  let norm = B.sqrt b (B.reduce_sum b (B.square b g)) in
  B.mul b g
    (B.minimum b (B.const_f b 1.0) (B.div b (B.const_f b clip_norm) norm))

(* The recipe sparse updates replace: every gradient densified, clipped
   densely, and applied to every row. *)
let reference_train store b ~algorithm ~clip_norm ~lr ~loss =
  let vars = Vs.trainable store in
  let grads = G.gradients b ~ys:[ loss ] ~xs:(List.map (fun v -> v.Vs.read) vars) () in
  let pairs =
    List.map2
      (fun (v : Vs.variable) g ->
        let g = G.densify b (Option.get g) in
        let g =
          match clip_norm with Some c -> dense_clip b ~clip_norm:c g | None -> g
        in
        (v, g))
      vars grads
  in
  let lr_t = B.const_f b lr in
  match algorithm with
  | Opt.Sgd ->
      B.group b
        (List.map
           (fun ((v : Vs.variable), g) -> B.assign_sub b v.Vs.handle (B.mul b lr_t g))
           pairs)
  | Opt.Adagrad { epsilon } ->
      B.group b
        (List.map
           (fun ((v : Vs.variable), g) ->
             let acc =
               Vs.get store ~trainable:false ~init:Octf_nn.Init.zeros
                 ~name:(v.Vs.name ^ "/adagrad") v.Vs.shape
             in
             let acc' = B.assign_add b acc.Vs.handle (B.square b g) in
             B.assign_sub b v.Vs.handle
               (B.div b (B.mul b lr_t g)
                  (B.add b (B.sqrt b acc') (B.const_f b epsilon))))
           pairs)
  | _ ->
      (* Momentum and Adam stay dense: their own dense update. *)
      Opt.apply_gradients store ~algorithm ~lr
        (List.map (fun (v, g) -> (v, G.Dense g)) pairs)

let run_variant ~reference ~algorithm ~clip_norm ~steps =
  let b, store, loss, ids, ids2 = build_model () in
  let lr = 0.3 in
  let train =
    if reference then reference_train store b ~algorithm ~clip_norm ~lr ~loss
    else Opt.minimize store ~algorithm ?clip_norm ~lr ~loss ()
  in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  let losses =
    List.init steps (fun step ->
        let feeds = feeds_for step (ids, ids2) in
        let l = List.hd (Session.run s ~feeds ~targets:[ train ] [ loss ]) in
        Tensor.flat_get_f l 0)
  in
  let vars = Vs.all store in
  let values = Session.run s (List.map (fun v -> v.Vs.read) vars) in
  let ops = ref [] in
  Graph.iter (B.graph b) (fun n -> ops := n.Node.op_type :: !ops);
  (losses, List.combine (List.map (fun v -> v.Vs.name) vars) values, !ops)

let bit_identity name ~algorithm ~clip_norm ~sparse_op =
  Alcotest.test_case name `Quick (fun () ->
      let steps = 6 in
      let rl, rv, _ = run_variant ~reference:true ~algorithm ~clip_norm ~steps in
      let l, v, ops = run_variant ~reference:false ~algorithm ~clip_norm ~steps in
      Alcotest.(check (list int64)) "losses"
        (List.map Int64.bits_of_float rl) (List.map Int64.bits_of_float l);
      let sort = List.sort (fun (a, _) (b, _) -> compare a b) in
      Alcotest.(check (list string)) "variables and slots"
        (List.map fst (sort rv)) (List.map fst (sort v));
      List.iter2
        (fun (n, e) (_, a) -> check_bits n e a)
        (sort rv) (sort v);
      match sparse_op with
      | Some op ->
          Alcotest.(check bool) ("uses " ^ op) true (List.mem op ops);
          Alcotest.(check bool) "no dense gradient" false
            (List.mem "ScatterIntoShape" ops)
      | None -> ())

let bit_identity_cases =
  [
    bit_identity "adagrad sparse = dense" ~algorithm:Opt.adagrad_default
      ~clip_norm:None ~sparse_op:(Some "SparseApplyAdagrad");
    bit_identity "adagrad + clip sparse = dense" ~algorithm:Opt.adagrad_default
      ~clip_norm:(Some 0.5) ~sparse_op:(Some "SparseApplyAdagrad");
    bit_identity "sgd + clip sparse = dense" ~algorithm:Opt.Sgd
      ~clip_norm:(Some 0.5) ~sparse_op:(Some "ScatterSub");
    bit_identity "momentum stays dense" ~algorithm:Opt.momentum_default
      ~clip_norm:None ~sparse_op:None;
    bit_identity "adam stays dense" ~algorithm:Opt.adam_default ~clip_norm:None
      ~sparse_op:None;
  ]

let suite =
  [
    Alcotest.test_case "I64 ScatterAdd keeps 2^53+1" `Quick test_int_scatter_add;
    Alcotest.test_case "I64 ScatterSub" `Quick test_int_scatter_sub;
    Alcotest.test_case "scatter checks" `Quick test_scatter_checks;
  ]
  @ List.map QCheck_alcotest.to_alcotest uss_props
  @ [
      Alcotest.test_case "UniqueSegmentSum I64 values" `Quick test_uss_int_values;
      Alcotest.test_case "SparseApplyAdagrad rejects bad indices" `Quick
        test_adagrad_rejects_indices;
      Alcotest.test_case "SparseApplyAdagrad keeps Read snapshots" `Quick
        test_adagrad_keeps_snapshots;
    ]
  @ bit_identity_cases
