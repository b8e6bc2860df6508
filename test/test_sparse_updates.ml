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
      O.scatter_add_in_place acc (Tensor.of_int_array [| 2 |] [| 0; 3 |]) upd);
  fails_with "bool named" "bool" (fun () ->
      O.scatter_sub_in_place
        (Tensor.of_bool_array [| 2 |] [| true; false |])
        (Tensor.of_int_array [| 1 |] [| 0 |])
        (Tensor.of_bool_array [| 1 |] [| true |]));
  fails_with "mixed dtypes" "dtype mismatch" (fun () ->
      O.scatter_add_in_place acc
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

(* ------------------------------------------------------------------ *)
(* Updates in place: copy only while shared                           *)
(* ------------------------------------------------------------------ *)

(* An F32 [4; 2] table holding 0..7, and its ScatterSub of one row. *)
let scatter_graph () =
  let b = B.create () in
  let v = B.variable b ~name:"v" ~dtype:Dtype.F32 ~shape:[| 4; 2 |] () in
  let init =
    B.assign b v (B.const b (Tensor.init_f [| 4; 2 |] (fun i -> float_of_int ((2 * i.(0)) + i.(1)))))
  in
  let update =
    B.scatter_sub b v
      (B.const b (Tensor.of_int_array [| 1 |] [| 2 |]))
      (B.const b (Tensor.full Dtype.F32 [| 1; 2 |] 1.0))
  in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  (b, s, v, update)

let test_scatter_keeps_snapshots () =
  let b, s, v, update = scatter_graph () in
  (* Two updates first: the second writes in place. *)
  Session.run_unit s [ update ];
  Session.run_unit s [ update ];
  let before = List.hd (Session.run s [ B.read b v ]) in
  let saved = Tensor.copy before in
  Session.run_unit s [ update ];
  Session.run_unit s [ update ];
  check_bits "earlier Read unchanged" saved before;
  (* A fetched update output is handed out too. *)
  let out = List.hd (Session.run s [ update ]) in
  let out_saved = Tensor.copy out in
  Session.run_unit s [ update ];
  check_bits "fetched update output unchanged" out_saved out;
  let after = List.hd (Session.run s [ B.read b v ]) in
  Alcotest.(check (float 0.)) "row 2 took six updates" (4.0 -. 6.0)
    (Tensor.get_f after [| 2; 0 |]);
  Alcotest.(check (float 0.)) "row 1 untouched" 3.0 (Tensor.get_f after [| 1; 1 |])

let test_adagrad_keeps_snapshots_in_place () =
  let b, s, var, acc, update = adagrad_graph [| 0; 3 |] in
  (* Unshared after the first update: later ones write in place. *)
  Session.run_unit s [ update ];
  Session.run_unit s [ update ];
  let before = Session.run s [ B.read b var; B.read b acc ] in
  let saved = List.map Tensor.copy before in
  Session.run_unit s [ update ];
  Session.run_unit s [ update ];
  List.iter2 (check_bits "earlier Read unchanged") saved before;
  let after = Session.run s [ B.read b var; B.read b acc ] in
  Alcotest.(check bool) "update landed" true
    (bits (List.hd after) <> bits (List.hd before))

(* A pipelined step gathers from its admission snapshot: its gather
   waits on a queue while a later step updates the table. *)
let test_pipelined_gather_reads_snapshot () =
  let b = B.create () in
  let v = B.variable b ~name:"table" ~dtype:Dtype.F32 ~shape:[| 4; 2 |] () in
  let table = Tensor.init_f [| 4; 2 |] (fun i -> float_of_int ((2 * i.(0)) + i.(1))) in
  let init = B.assign b v (B.const b table) in
  let q = B.fifo_queue b ~capacity:1 ~num_components:1 () in
  let token = List.hd (B.dequeue b q ~num_components:1) in
  let release = B.enqueue b q [ B.const_f b 0.0 ] in
  let idx = B.const b (Tensor.of_int_array [| 2 |] [| 1; 2 |]) in
  let read = B.with_control_dependencies b [ token ] (fun () -> B.read b v) in
  let rows = B.mul b (B.gather b read idx) (B.const_f b 1.0) in
  let update =
    B.scatter_sub b v idx (B.const b (Tensor.full Dtype.F32 [| 2; 2 |] 10.0))
  in
  let s =
    Session.create ~config:(Session.Config.v ~max_in_flight:2 ()) (B.graph b)
  in
  Session.run_unit s [ init ];
  let h =
    Session.run_async ~options:(Session.Run_options.v ~trace:true ()) s [ rows ]
  in
  Session.run_unit s [ update ];
  Session.run_unit s [ release ];
  let fetched, md = Session.wait h in
  check_bits "rows at admission"
    (O.gather table (Tensor.of_int_array [| 2 |] [| 1; 2 |]))
    (List.hd fetched);
  let ops =
    List.map
      (fun (e : Tracer.event) -> e.Tracer.op_type)
      (Tracer.events (Option.get md.Session.Run_metadata.tracer))
  in
  Alcotest.(check bool) "gathered at the variable" true
    (List.mem "GatherVariable" ops)

(* A two-shard Adagrad embedding of [rows] rows per shard. *)
let embedding_model ?(algorithm = Opt.adagrad_default) ~vocab ~dim () =
  let b = B.create () in
  let store = Vs.create ~seed:3 b in
  let emb =
    Octf_nn.Embedding.create store ~name:"emb" ~vocab ~dim ~num_shards:2 ()
  in
  let ids = B.placeholder b ~name:"ids" ~shape:[| 16 |] Dtype.I32 in
  let rows = Octf_nn.Embedding.lookup emb b ids in
  let loss = B.reduce_sum b (B.square b (B.sub b rows (B.const_f b 0.5))) in
  let train = Opt.minimize store ~algorithm ~lr:0.1 ~loss () in
  (b, store, ids, rows, loss, train)

let ids_for step vocab =
  Tensor.of_int_array [| 16 |]
    (Array.init 16 (fun i -> ((step * 7) + (i * 13)) mod vocab))

let test_steady_state_copies_no_table () =
  let vocab = 8192 and dim = 16 in
  let _, store, ids, _, loss, train = embedding_model ~vocab ~dim () in
  ignore store;
  let s =
    Session.create
      ~config:(Session.Config.v ~scheduler:Scheduler.Inline ())
      (B.graph (Vs.builder store))
  in
  Session.run_unit s [ Vs.init_op store ];
  let step i =
    ignore (Session.run s ~feeds:[ (ids, ids_for i vocab) ] ~targets:[ train ] [ loss ])
  in
  for i = 0 to 4 do step i done;
  let steps = 20 in
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let before = major_words () in
  for i = 5 to 4 + steps do step i done;
  let per_step = (major_words () -. before) /. float_of_int steps in
  let shard_words = float_of_int (vocab / 2 * dim) in
  if per_step >= shard_words then
    Alcotest.failf "%.0f major words per step, one shard is %.0f" per_step
      shard_words

(* The lm graph: a two-shard embedding on two ps tasks and sampled
   softmax weights, as train_lm_ps builds it. *)
let lm_graph ?(fetch_read = false) () =
  let vocab = 256 and dim = 8 and unroll = 4 and batch = 4 in
  let b = B.create () in
  let store = Vs.create ~seed:1 b in
  let inputs = B.placeholder b ~name:"inputs" ~shape:[| batch; unroll |] Dtype.I32 in
  let targets = B.placeholder b ~name:"targets" ~shape:[| batch; unroll |] Dtype.I32 in
  let emb =
    Octf_nn.Embedding.create store
      ~devices:[ "/job:ps/task:0"; "/job:ps/task:1" ]
      ~name:"embedding" ~vocab ~dim ~num_shards:2 ()
  in
  let softmax_w =
    Vs.get store ~device:"/job:ps/task:1" ~name:"softmax_w" [| vocab; dim |]
  in
  let column t x =
    B.reshape b (B.slice b x ~begin_:[| 0; t |] ~size:[| batch; 1 |]) [| batch |]
  in
  let loss =
    B.with_device b "/job:worker/task:0" (fun () ->
        let cell = Octf_nn.Lstm.cell store ~name:"lstm" ~input_dim:dim ~units:dim in
        let xs = List.init unroll (fun t -> Octf_nn.Embedding.lookup emb b (column t inputs)) in
        let hs = Octf_nn.Lstm.unroll cell b ~xs ~batch in
        B.add_n b
          (List.mapi
             (fun t h ->
               Octf_nn.Sampled_softmax.sampled_softmax_loss b
                 ~weights:softmax_w.Vs.read ~hidden:h ~labels:(column t targets)
                 ~num_sampled:16 ~num_classes:vocab)
             hs))
  in
  let train =
    Opt.minimize store ~algorithm:Opt.adagrad_default ~clip_norm:5.0 ~lr:0.3
      ~loss ()
  in
  let fetches = if fetch_read then [ loss; softmax_w.Vs.read ] else [ loss ] in
  (b, inputs, targets, fetches, train)

(* GatherVariable nodes of a compiled step, by the variable they read. *)
let gathers_at_variables g nodes =
  List.filter_map
    (fun id ->
      let n = Graph.get g id in
      if n.Node.op_type = "GatherVariable" then
        Some (Graph.get g n.Node.inputs.(0).Node.node_id).Node.name
      else None)
    nodes
  |> List.sort compare

(* A step optimized as a session compiles it: on a copy of the graph,
   which it returns with the step's node ids. *)
let compiled_step g ~feeds ~fetches ~targets =
  let g = Graph.copy g in
  ( g,
    Graph_optimizer.run g ~passes:Graph_optimizer.fused_pipeline
      ~feeds:(List.map B.endpoint_of_output feeds)
      ~fetches:(List.map B.endpoint_of_output fetches)
      ~targets:(List.map (fun (o : B.output) -> o.B.node.Node.id) targets) )

let test_rewrite_fires_on_lm_graph () =
  let b, inputs, targets, fetches, train = lm_graph () in
  let g, nodes =
    compiled_step (B.graph b) ~feeds:[ inputs; targets ] ~fetches
      ~targets:[ train ]
  in
  let count name =
    List.length (List.filter (( = ) name) (gathers_at_variables g nodes))
  in
  Alcotest.(check (list int)) "gathers per variable" [ 4; 4; 8 ]
    [ count "embedding/shard_0"; count "embedding/shard_1"; count "softmax_w" ];
  Alcotest.(check bool) "no Read of a gathered table" false
    (List.exists
       (fun id ->
         let n = Graph.get g id in
         n.Node.op_type = "Read"
         && List.mem
              (Graph.get g n.Node.inputs.(0).Node.node_id).Node.name
              [ "embedding/shard_0"; "embedding/shard_1"; "softmax_w" ])
       nodes);
  (* A fetched Read keeps its gathers. *)
  let b, inputs, targets, fetches, train = lm_graph ~fetch_read:true () in
  let g, nodes =
    compiled_step (B.graph b) ~feeds:[ inputs; targets ] ~fetches
      ~targets:[ train ]
  in
  Alcotest.(check int) "softmax_w read fetched" 0
    (List.length (List.filter (( = ) "softmax_w") (gathers_at_variables g nodes)))

(* Two gathers of one Read and a ScatterSub of the table. [both]: the
   update depends on both gathers, so the rewrite applies; otherwise
   on the first only, and the second must still see the table as the
   Read returned it. *)
let two_gathers ~both ~fetch_read =
  let b = B.create () in
  let v = B.variable b ~name:"table" ~dtype:Dtype.F32 ~shape:[| 4; 2 |] () in
  let table = Tensor.init_f [| 4; 2 |] (fun i -> float_of_int ((2 * i.(0)) + i.(1))) in
  let init = B.assign b v (B.const b table) in
  let read = B.read b v in
  let i1 = Tensor.of_int_array [| 2 |] [| 0; 2 |] in
  let i2 = Tensor.of_int_array [| 2 |] [| 2; 3 |] in
  let g1 = B.gather b read (B.const b i1) in
  let g2 = B.gather b read (B.const b i2) in
  let h1 = B.mul b g1 (B.const_f b 2.0) and h2 = B.mul b g2 (B.const_f b 3.0) in
  let upd = if both then B.add b h1 h2 else h1 in
  let update = B.scatter_sub b v (B.const b i1) upd in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ init ];
  let fetches = if fetch_read then [ h1; h2; read ] else [ h1; h2 ] in
  let g, nodes =
    compiled_step (B.graph b) ~feeds:[] ~fetches ~targets:[ update ]
  in
  let got = Session.run s ~targets:[ update ] fetches in
  let expected =
    [
      O.mul (O.gather table i1) (Tensor.scalar_f 2.0);
      O.mul (O.gather table i2) (Tensor.scalar_f 3.0);
    ]
  in
  List.iter2 (check_bits "rows as the Read returned them") expected
    (List.filteri (fun k _ -> k < 2) got);
  List.length (gathers_at_variables g nodes)

let test_rewrite_conditions () =
  Alcotest.(check int) "writer after both gathers" 2
    (two_gathers ~both:true ~fetch_read:false);
  Alcotest.(check int) "writer after one gather" 0
    (two_gathers ~both:false ~fetch_read:false);
  Alcotest.(check int) "Read fetched" 0 (two_gathers ~both:true ~fetch_read:true)

(* Training that updates in place equals training whose every step
   also fetches the tables, so that every update copies (and no gather
   runs at a variable), bit for bit. *)
let test_in_place_equals_copying () =
  let vocab = 64 and dim = 4 in
  let train_with algorithm ~fetch_tables =
    let b, store, ids, _, loss, train = embedding_model ~algorithm ~vocab ~dim () in
    let s = Session.create (B.graph b) in
    Session.run_unit s [ Vs.init_op store ];
    let tables = List.map (fun v -> v.Vs.read) (Vs.all store) in
    let losses =
      List.init 8 (fun i ->
          let fetches = if fetch_tables then loss :: tables else [ loss ] in
          List.hd
            (Session.run s ~feeds:[ (ids, ids_for i vocab) ] ~targets:[ train ]
               fetches))
    in
    losses @ Session.run s tables
  in
  List.iter
    (fun algorithm ->
      List.iter2 (check_bits "in place = copying")
        (train_with algorithm ~fetch_tables:true)
        (train_with algorithm ~fetch_tables:false))
    [ Opt.Sgd; Opt.adagrad_default ]

let test_frozen_embedding_serves () =
  let vocab = 64 and dim = 4 in
  let b, store, ids, rows, loss, train = embedding_model ~vocab ~dim () in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  for i = 0 to 4 do
    ignore (Session.run s ~feeds:[ (ids, ids_for i vocab) ] ~targets:[ train ] [ loss ])
  done;
  let feeds = [ (ids, ids_for 9 vocab) ] in
  let live = List.hd (Session.run s ~feeds [ rows ]) in
  let frozen =
    Octf_serving.Serving.freeze_session ~inputs:[ ids ] ~outputs:[ rows ] s
  in
  check_bits "frozen rows" live (List.hd (Session.run frozen ~feeds [ rows ]));
  Alcotest.(check int) "no variable state"
    0 (List.length (Resource_manager.variables (Session.resources frozen)))

let test_minimize_after_forward_compile () =
  let vocab = 16 and dim = 2 in
  let b = B.create () in
  let store = Vs.create ~seed:3 b in
  let emb =
    Octf_nn.Embedding.create store ~name:"emb" ~vocab ~dim ~num_shards:2 ()
  in
  let ids = B.placeholder b ~name:"ids" ~shape:[| 16 |] Dtype.I32 in
  let rows = Octf_nn.Embedding.lookup emb b ids in
  let loss = B.reduce_sum b (B.square b (B.sub b rows (B.const_f b 0.5))) in
  let s = Session.create (B.graph b) in
  Session.run_unit s [ Vs.init_op store ];
  let feeds = [ (ids, ids_for 0 vocab) ] in
  (* The forward step compiles first: its gathers run at the shards. *)
  ignore (Session.run s ~feeds [ loss ]);
  let shards = Vs.trainable store in
  let grads =
    G.gradients b ~ys:[ loss ] ~xs:(List.map (fun v -> v.Vs.read) shards) ()
  in
  Alcotest.(check int) "a gradient for every shard" (List.length shards)
    (List.length (List.filter Option.is_some grads));
  let train = Opt.minimize store ~algorithm:Opt.Sgd ~lr:0.1 ~loss () in
  let reads = List.map (fun v -> v.Vs.read) shards in
  let before = List.map Tensor.copy (Session.run s reads) in
  ignore (Session.run s ~feeds ~targets:[ train ] [ loss ]);
  List.iter2
    (fun (v : Vs.variable) (b0, b1) ->
      Alcotest.(check bool) (v.Vs.name ^ " trained") true (bits b0 <> bits b1))
    shards
    (List.combine before (Session.run s reads))

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

(* The in-place path: tables written without a copy while unshared,
   gathers at the variable, and what a Read or a snapshot still sees.
   Kept apart from [suite] so that its pool leg's name, "in_place pool",
   is no longer than the other suite names: Alcotest widens its name
   column to the longest. *)
let in_place_suite =
  [
    Alcotest.test_case "in place: SparseApplyAdagrad keeps Read snapshots"
      `Quick test_adagrad_keeps_snapshots_in_place;
    Alcotest.test_case "in place: ScatterSub keeps Read snapshots" `Quick
      test_scatter_keeps_snapshots;
    Alcotest.test_case "pipelined gather reads its admission snapshot"
      `Quick test_pipelined_gather_reads_snapshot;
    Alcotest.test_case "steady state copies no table" `Quick
      test_steady_state_copies_no_table;
    Alcotest.test_case "gather at the variable fires on the lm graph"
      `Quick test_rewrite_fires_on_lm_graph;
    Alcotest.test_case "gather at the variable: when it applies" `Quick
      test_rewrite_conditions;
    Alcotest.test_case "in-place training equals copying training" `Quick
      test_in_place_equals_copying;
    Alcotest.test_case "frozen embedding serves without variables" `Quick
      test_frozen_embedding_serves;
    Alcotest.test_case "minimize after a forward compile trains every shard"
      `Quick test_minimize_after_forward_compile;
  ]
