module B = Octf.Builder
module Vs = Octf_nn.Var_store
module G = Octf.Gradients
module Init = Octf_nn.Init

type algorithm =
  | Sgd
  | Momentum of { momentum : float }
  | Adagrad of { epsilon : float }
  | Rmsprop of { decay : float; epsilon : float }
  | Adadelta of { rho : float; epsilon : float }
  | Adam of { beta1 : float; beta2 : float; epsilon : float }

let momentum_default = Momentum { momentum = 0.9 }

let adagrad_default = Adagrad { epsilon = 1e-8 }

let rmsprop_default = Rmsprop { decay = 0.9; epsilon = 1e-8 }

let adadelta_default = Adadelta { rho = 0.95; epsilon = 1e-6 }

let adam_default = Adam { beta1 = 0.9; beta2 = 0.999; epsilon = 1e-8 }

(* Slots are created on their variable's requested device, as TF
   colocates them, so a step never ships a gradient to another task to
   update state that belongs with the variable. *)
let slot_of_shape store (var : Vs.variable) suffix shape =
  B.colocate_with (Vs.builder store) var.Vs.handle (fun () ->
      Vs.get store ~trainable:false ~init:Init.zeros
        ~name:(var.Vs.name ^ "/" ^ suffix)
        shape)

let slot store (var : Vs.variable) suffix =
  slot_of_shape store var suffix var.Vs.shape

let scalar_slot store var suffix = slot_of_shape store var suffix [||]

(* One dense update subgraph per (algorithm, variable). Returns the op to
   execute. [lr_t] is a scalar graph output, so schedules (Schedule) plug
   in directly. *)
let apply_dense store algorithm ~lr_t (var : Vs.variable) g =
  let b = Vs.builder store in
  match algorithm with
  | Sgd -> B.assign_sub b var.Vs.handle (B.mul b lr_t g)
  | Momentum { momentum } ->
      let v = slot store var "momentum" in
      let v' =
        B.assign b v.Vs.handle
          (B.add b (B.mul b (B.const_f b momentum) v.Vs.read) g)
      in
      B.assign_sub b var.Vs.handle (B.mul b lr_t v')
  | Adagrad { epsilon } ->
      let acc = slot store var "adagrad" in
      let acc' = B.assign_add b acc.Vs.handle (B.square b g) in
      B.assign_sub b var.Vs.handle
        (B.div b (B.mul b lr_t g)
           (B.add b (B.sqrt b acc') (B.const_f b epsilon)))
  | Rmsprop { decay; epsilon } ->
      let ms = slot store var "rms" in
      let ms' =
        B.assign b ms.Vs.handle
          (B.add b
             (B.mul b (B.const_f b decay) ms.Vs.read)
             (B.mul b (B.const_f b (1.0 -. decay)) (B.square b g)))
      in
      B.assign_sub b var.Vs.handle
        (B.div b (B.mul b lr_t g)
           (B.add b (B.sqrt b ms') (B.const_f b epsilon)))
  | Adadelta { rho; epsilon } ->
      let acc_g = slot store var "adadelta_g" in
      let acc_x = slot store var "adadelta_x" in
      let rho_t = B.const_f b rho and eps = B.const_f b epsilon in
      let one_minus_rho = B.const_f b (1.0 -. rho) in
      let acc_g' =
        B.assign b acc_g.Vs.handle
          (B.add b (B.mul b rho_t acc_g.Vs.read)
             (B.mul b one_minus_rho (B.square b g)))
      in
      let update =
        B.mul b g
          (B.div b
             (B.sqrt b (B.add b acc_x.Vs.read eps))
             (B.sqrt b (B.add b acc_g' eps)))
      in
      let acc_x' =
        B.assign b acc_x.Vs.handle
          (B.add b (B.mul b rho_t acc_x.Vs.read)
             (B.mul b one_minus_rho (B.square b update)))
      in
      (* Order the statistics update before the parameter write. *)
      B.with_control_dependencies b [ acc_x' ] (fun () ->
          B.assign_sub b var.Vs.handle (B.mul b lr_t update))
  | Adam { beta1; beta2; epsilon } ->
      let m = slot store var "adam_m" in
      let v = slot store var "adam_v" in
      let t = scalar_slot store var "adam_t" in
      let t' = B.assign_add b t.Vs.handle (B.const_f b 1.0) in
      let b1 = B.const_f b beta1 and b2 = B.const_f b beta2 in
      let m' =
        B.assign b m.Vs.handle
          (B.add b (B.mul b b1 m.Vs.read)
             (B.mul b (B.const_f b (1.0 -. beta1)) g))
      in
      let v' =
        B.assign b v.Vs.handle
          (B.add b (B.mul b b2 v.Vs.read)
             (B.mul b (B.const_f b (1.0 -. beta2)) (B.square b g)))
      in
      let one = B.const_f b 1.0 in
      let m_hat = B.div b m' (B.sub b one (B.pow b b1 t')) in
      let v_hat = B.div b v' (B.sub b one (B.pow b b2 t')) in
      B.assign_sub b var.Vs.handle
        (B.div b (B.mul b lr_t m_hat)
           (B.add b (B.sqrt b v_hat) (B.const_f b epsilon)))

(* Sum a sparse gradient's duplicate rows once. Indices that already
   come out of UniqueSegmentSum (minimize's clip) pass through. *)
let deduplicate b ~indices ~values =
  if indices.B.node.Octf.Node.op_type = "UniqueSegmentSum" then
    (indices, values)
  else B.unique_segment_sum b indices values

let apply_sparse store algorithm ~lr_t (var : Vs.variable) ~indices ~values
    ~dense_shape =
  let b = Vs.builder store in
  match algorithm with
  | Sgd ->
      (* The §4.2 payoff: update only the rows this step gathered. *)
      B.scatter_sub b var.Vs.handle indices (B.mul b lr_t values)
  | Adagrad { epsilon } ->
      (* On a row no index names, dense Adagrad adds 0 to the
         accumulator and subtracts 0 from the variable, both exact, so
         updating only the named rows gives the same bits. *)
      let acc = slot store var "adagrad" in
      let indices, values = deduplicate b ~indices ~values in
      B.sparse_apply_adagrad b ~epsilon var.Vs.handle acc.Vs.handle ~lr:lr_t
        indices values
  | Momentum _ | Rmsprop _ | Adadelta _ | Adam _ ->
      (* These decay every row on every step; updating only the named
         rows would be a different ("lazy") algorithm. *)
      apply_dense store algorithm ~lr_t var
        (G.densify b (G.Sparse { indices; values; dense_shape }))

let apply_grad store algorithm ~lr_t (var : Vs.variable) = function
  | G.Dense g -> apply_dense store algorithm ~lr_t var g
  | G.Sparse { indices; values; dense_shape } ->
      apply_sparse store algorithm ~lr_t var ~indices ~values ~dense_shape

let apply_gradients_with_rate store ?(algorithm = Sgd) ~lr_t pairs =
  let b = Vs.builder store in
  let ops =
    List.map (fun (var, g) -> apply_grad store algorithm ~lr_t var g) pairs
  in
  B.group b ~name:"apply_gradients" ops

let apply_gradients store ?algorithm ~lr pairs =
  let b = Vs.builder store in
  apply_gradients_with_rate store ?algorithm ~lr_t:(B.const_f b lr) pairs

let clip b ~clip_norm g =
  let norm = B.sqrt b (B.reduce_sum b (B.square b g)) in
  let scale =
    B.minimum b (B.const_f b 1.0) (B.div b (B.const_f b clip_norm) norm)
  in
  B.mul b g scale

let minimize_with_rate store ?(algorithm = Sgd) ?var_list ?clip_norm ~lr_t
    ~loss () =
  let b = Vs.builder store in
  let vars =
    match var_list with Some vs -> vs | None -> Vs.trainable store
  in
  if vars = [] then invalid_arg "Optimizer.minimize: no trainable variables";
  let xs = List.map (fun (v : Vs.variable) -> v.Vs.read) vars in
  let grads = G.gradients b ~ys:[ loss ] ~xs () in
  let pairs =
    List.concat
      (List.map2
         (fun var g ->
           match g with
           | None -> []
           | Some (G.Dense d) ->
               let d =
                 match clip_norm with
                 | None -> d
                 | Some c -> clip b ~clip_norm:c d
               in
               [ (var, G.Dense d) ]
           | Some (G.Sparse { indices; values; dense_shape } as sparse) -> (
               match clip_norm with
               | None -> [ (var, sparse) ]
               | Some c ->
                   (* The distinct rows in ascending order hold every
                      nonzero of the dense gradient in flat order, and
                      the dense sum of squares only adds +0.0 besides,
                      so this norm and these rows are the dense ones. *)
                   let indices, values = deduplicate b ~indices ~values in
                   let values = clip b ~clip_norm:c values in
                   [ (var, G.Sparse { indices; values; dense_shape }) ]))
         vars grads)
  in
  if pairs = [] then
    invalid_arg "Optimizer.minimize: loss does not depend on any variable";
  apply_gradients_with_rate store ~algorithm ~lr_t pairs

let minimize store ?algorithm ?var_list ?clip_norm ~lr ~loss () =
  let b = Vs.builder store in
  minimize_with_rate store ?algorithm ?var_list ?clip_norm
    ~lr_t:(B.const_f b lr) ~loss ()

let clip_by_global_norm b ~clip_norm grads =
  match grads with
  | [] -> []
  | _ ->
      let sq = List.map (fun g -> B.reduce_sum b (B.square b g)) grads in
      let norm = B.sqrt b (B.add_n b sq) in
      let scale =
        B.minimum b (B.const_f b 1.0) (B.div b (B.const_f b clip_norm) norm)
      in
      List.map (fun g -> B.mul b g scale) grads
