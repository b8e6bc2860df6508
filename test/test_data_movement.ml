(* Data-movement ops against naive per-element references, bit for bit.

   Every op here moves elements without arithmetic, so its output must
   equal the reference exactly for every dtype: F32 NaN payloads and
   -0.0, I64 values no float can hold (2^53 + 1), U8, Bool and String.
   The references below index one element at a time through
   [Shape.multi_index] / [Shape.flat_index]; they share no code with the
   kernels. Each property runs at one and at four intra-op threads, and
   a share of the generated shapes exceed one parallel shard. *)

open Octf_tensor
open Octf
module O = Tensor_ops
module B = Builder

(* ------------------------------------------------------------------ *)
(* Elements compared by bits                                           *)
(* ------------------------------------------------------------------ *)

type elt = F of int64 | I of int | U of char | Bo of bool | S of string

type r = { dt : Dtype.t; sh : Shape.t; el : elt array }

let to_ref t =
  let el =
    match t.Tensor.buf with
    | Tensor.Float_buf a -> Array.map (fun x -> F (Int64.bits_of_float x)) a
    | Tensor.Int_buf a -> Array.map (fun x -> I x) a
    | Tensor.Byte_buf b ->
        Array.init (Bytes.length b) (fun i -> U (Bytes.get b i))
    | Tensor.Bool_buf a -> Array.map (fun x -> Bo x) a
    | Tensor.String_buf a -> Array.map (fun x -> S x) a
  in
  { dt = Tensor.dtype t; sh = Tensor.shape t; el }

let of_ref r =
  let pick f = Array.map f r.el in
  let bad () = invalid_arg "of_ref: element kind" in
  let buf =
    match r.dt with
    | Dtype.F32 | Dtype.F64 ->
        Tensor.Float_buf
          (pick (function F b -> Int64.float_of_bits b | _ -> bad ()))
    | Dtype.I32 | Dtype.I64 ->
        Tensor.Int_buf (pick (function I x -> x | _ -> bad ()))
    | Dtype.U8 ->
        Tensor.Byte_buf
          (Bytes.init (Array.length r.el) (fun i ->
               match r.el.(i) with U c -> c | _ -> bad ()))
    | Dtype.Bool -> Tensor.Bool_buf (pick (function Bo b -> b | _ -> bad ()))
    | Dtype.String ->
        Tensor.String_buf (pick (function S s -> s | _ -> bad ()))
  in
  Tensor.create r.dt r.sh buf

let zero_elt = function
  | Dtype.F32 | Dtype.F64 -> F 0L
  | Dtype.I32 | Dtype.I64 -> I 0
  | Dtype.U8 -> U '\000'
  | Dtype.Bool -> Bo false
  | Dtype.String -> S ""

let show_elt = function
  | F b -> Printf.sprintf "%h" (Int64.float_of_bits b)
  | I x -> string_of_int x
  | U c -> string_of_int (Char.code c)
  | Bo b -> string_of_bool b
  | S s -> Printf.sprintf "%S" s

let show r =
  Printf.sprintf "%s%s[%s]" (Dtype.to_string r.dt) (Shape.to_string r.sh)
    (String.concat " " (Array.to_list (Array.map show_elt r.el)))

let same expected actual =
  if
    Dtype.equal expected.dt actual.dt
    && Shape.equal expected.sh actual.sh
    && expected.el = actual.el
  then true
  else
    QCheck.Test.fail_reportf "expected %s\ngot      %s" (show expected)
      (show actual)

let same_list expected actual =
  List.length expected = List.length actual
  && List.for_all2 same expected actual

(* ------------------------------------------------------------------ *)
(* Naive references                                                    *)
(* ------------------------------------------------------------------ *)

let at r idx = r.el.(Shape.flat_index r.sh idx)

(* The tensor of shape [sh] whose element at [idx] is [f idx]. *)
let build dt sh f =
  let el = Array.init (Shape.numel sh) (fun o -> f (Shape.multi_index sh o)) in
  { dt; sh; el }

let norm_axis rank axis = if axis < 0 then axis + rank else axis

let ref_slice r begin_ size =
  let size =
    Array.mapi (fun d s -> if s = -1 then r.sh.(d) - begin_.(d) else s) size
  in
  build r.dt size (fun o -> at r (Array.mapi (fun d v -> v + begin_.(d)) o))

let ref_concat rs axis =
  let first = List.hd rs in
  let axis = norm_axis (Shape.rank first.sh) axis in
  let sh = Array.copy first.sh in
  sh.(axis) <- List.fold_left (fun acc r -> acc + r.sh.(axis)) 0 rs;
  build first.dt sh (fun o ->
      let rec find k = function
        | r :: rest ->
            if k < r.sh.(axis) then
              at r (Array.mapi (fun d v -> if d = axis then k else v) o)
            else find (k - r.sh.(axis)) rest
        | [] -> assert false
      in
      find o.(axis) rs)

let ref_pad r paddings =
  let sh =
    Array.mapi (fun d n -> n + fst paddings.(d) + snd paddings.(d)) r.sh
  in
  build r.dt sh (fun o ->
      let i = Array.mapi (fun d v -> v - fst paddings.(d)) o in
      if Array.for_all2 (fun v n -> v >= 0 && v < n) i r.sh then at r i
      else zero_elt r.dt)

let ref_tile r multiples =
  build r.dt (Array.mapi (fun d n -> n * multiples.(d)) r.sh) (fun o ->
      at r (Array.mapi (fun d v -> v mod r.sh.(d)) o))

let ref_transpose r perm =
  build r.dt (Array.map (fun p -> r.sh.(p)) perm) (fun o ->
      let i = Array.make (Array.length perm) 0 in
      Array.iteri (fun d p -> i.(p) <- o.(d)) perm;
      at r i)

let ref_broadcast_to r target =
  let lead = Shape.rank target - Shape.rank r.sh in
  build r.dt target (fun o ->
      at r (Array.mapi (fun d n -> if n = 1 then 0 else o.(d + lead)) r.sh))

let ints r = Array.map (function I x -> x | _ -> assert false) r.el

let tail sh =
  if Shape.rank sh = 0 then [||] else Array.sub sh 1 (Shape.rank sh - 1)

(* Row [i] along axis 0; a scalar is its own single row. *)
let row_idx sh i rest =
  if Shape.rank sh = 0 then [||] else Array.append [| i |] rest

let ref_gather params indices =
  let idx = ints indices and ir = Shape.rank indices.sh in
  build params.dt (Array.append indices.sh (tail params.sh)) (fun o ->
      let row = idx.(Shape.flat_index indices.sh (Array.sub o 0 ir)) in
      at params (Array.append [| row |] (Array.sub o ir (Array.length o - ir))))

(* Rows of [r] listed by [rows], stacked along a new axis 0. *)
let ref_rows r rows =
  let rows = Array.of_list rows in
  build r.dt (Array.append [| Array.length rows |] (tail r.sh)) (fun o ->
      at r (row_idx r.sh rows.(o.(0)) (tail o)))

let ref_dynamic_partition data partitions num =
  let p = ints partitions in
  List.init num (fun k ->
      ref_rows data
        (List.filter (fun i -> p.(i) = k) (List.init (Array.length p) Fun.id)))

(* Stitch: the last (partition, position) naming a row wins; unnamed
   rows are zero; the tail comes from the first non-empty partition. *)
let ref_dynamic_stitch indices data =
  let pairs = List.combine (List.map ints indices) data in
  let nrows =
    1 + List.fold_left (fun m (ix, _) -> Array.fold_left max m ix) (-1) pairs
  in
  let tail_sh =
    match List.find_opt (fun (ix, _) -> Array.length ix > 0) pairs with
    | Some (_, d) -> tail d.sh
    | None -> [||]
  in
  let dt = (List.hd data).dt in
  build dt (Array.append [| nrows |] tail_sh) (fun o ->
      let v = ref (zero_elt dt) in
      List.iter
        (fun (ix, d) ->
          Array.iteri
            (fun i row ->
              if row = o.(0) then v := at d (Array.append [| i |] (tail o)))
            ix)
        pairs;
      !v)

let ref_stack rs =
  let first = List.hd rs in
  let arr = Array.of_list rs in
  build first.dt (Array.append [| Array.length arr |] first.sh) (fun o ->
      at arr.(o.(0)) (tail o))

(* Gradient of dynamic_partition: row i is the next unread row of
   dy_{partitions[i]}. *)
let ref_dynamic_partition_grad partitions dys =
  let p = ints partitions in
  let dys = Array.of_list dys in
  let tail_sh =
    match Array.to_list dys |> List.find_opt (fun d -> d.sh.(0) > 0) with
    | Some d -> tail d.sh
    | None -> [||]
  in
  let cursor = Array.make (Array.length dys) 0 in
  let src =
    Array.map
      (fun k ->
        let c = cursor.(k) in
        cursor.(k) <- c + 1;
        (k, c))
      p
  in
  build dys.(0).dt (Array.append [| Array.length p |] tail_sh) (fun o ->
      let k, c = src.(o.(0)) in
      at dys.(k) (Array.append [| c |] (tail o)))

(* ------------------------------------------------------------------ *)
(* Running kernels                                                     *)
(* ------------------------------------------------------------------ *)

(* One registered kernel invoked directly on constant inputs. *)
let run_kernel ?(attrs = []) op_type inputs =
  Builtin_kernels.ensure ();
  let b = B.create () in
  let node =
    B.op b ~op_type ~attrs (List.map (fun x -> B.const b (of_ref x)) inputs)
  in
  let kernel = Option.get (Kernel.instantiate ~device:Device.CPU node) in
  kernel
    {
      Kernel.node;
      inputs =
        Array.of_list (List.map (fun x -> Value.Tensor (of_ref x)) inputs);
      resources = Resource_manager.create ();
      rendezvous = None;
      rng = None;
      step_id = 0;
      cancel = None;
      grants = [];
      var_snapshot = None;
    }
  |> Array.to_list
  |> List.map (fun v -> to_ref (Value.tensor v))

let ints_attr name l = (name, Attr.Ints (Array.to_list l))

let flat_pairs paddings =
  List.concat_map (fun (a, b) -> [ a; b ]) (Array.to_list paddings)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

open QCheck.Gen

let big_int = (1 lsl 53) + 1

let elt_gen = function
  | Dtype.F32 | Dtype.F64 ->
      map
        (fun x -> F (Int64.bits_of_float x))
        (frequency
           [
             (4, float_range (-1e6) 1e6);
             (1, return Float.nan);
             (1, return (Int64.float_of_bits 0x7ff8_0000_dead_beefL));
             (1, return (-0.0));
             (1, return Float.infinity);
             (1, return Float.neg_infinity);
           ])
  | Dtype.I32 | Dtype.I64 ->
      map
        (fun x -> I x)
        (frequency
           [
             (2, int_range (-1000) 1000);
             (2, return big_int);
             (1, return (-big_int - 2));
             (1, return max_int);
             (1, return min_int);
           ])
  | Dtype.U8 -> map (fun x -> U (Char.chr x)) (int_bound 255)
  | Dtype.Bool -> map (fun b -> Bo b) bool
  | Dtype.String ->
      map (fun s -> S s) (string_size ~gen:printable (int_bound 4))

let dtype_gen = oneofl Dtype.[ F32; I64; U8; Bool; String ]

let tensor_gen dt sh =
  map (fun el -> { dt; sh; el }) (array_repeat (Shape.numel sh) (elt_gen dt))

(* Odd small shapes, zero-size dims included, plus one case in eight of
   a shape past 8192 elements, so the copy shards across threads. *)
let shape_gen ~min_rank =
  frequency
    [
      ( 7,
        int_range min_rank 4 >>= fun rank -> array_repeat rank (int_bound 4) );
      ( 1,
        int_range (max 1 min_rank) 3 >>= fun rank ->
        int_range 2 5 >>= fun lead ->
        return
          (if rank = 1 then [| 8200 + lead |]
           else
             Array.init rank (fun d ->
                 if d = 0 then lead else if d = rank - 1 then (8200 / lead) + 7
                 else 1)) );
    ]

let data_gen ?(min_rank = 0) () =
  dtype_gen >>= fun dt ->
  shape_gen ~min_rank >>= fun sh -> tensor_gen dt sh

let axis_gen rank =
  int_bound (rank - 1) >>= fun a -> oneofl [ a; a - rank ]

(* Each property runs under both intra-op thread budgets. *)
let with_threads n f =
  let saved = Parallel.threads () in
  Parallel.set_threads n;
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) f

let prop name ?(count = 60) gen print check =
  List.map
    (fun threads ->
      QCheck.Test.make ~count
        ~name:(Printf.sprintf "%s (%d thread%s)" name threads
                 (if threads = 1 then "" else "s"))
        (QCheck.make ~print gen)
        (fun x -> with_threads threads (fun () -> check x)))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let slice_gen =
  data_gen () >>= fun r ->
  let dims = Array.to_list r.sh in
  flatten_l
    (List.map
       (fun n ->
         int_bound n >>= fun b ->
         oneof [ int_bound (n - b); return (-1) ] >>= fun s -> return (b, s))
       dims)
  >>= fun bs ->
  return
    (r, Array.of_list (List.map fst bs), Array.of_list (List.map snd bs))

let print_slice (r, b, s) =
  Printf.sprintf "%s begin=%s size=%s" (show r) (Shape.to_string b)
    (Shape.to_string s)

let slice_props =
  prop "slice" slice_gen print_slice (fun (r, begin_, size) ->
      same (ref_slice r begin_ size)
        (to_ref (O.slice (of_ref r) ~begin_ ~size)))

let pad_props =
  let gen =
    data_gen () >>= fun r ->
    array_repeat (Shape.rank r.sh) (pair (int_bound 2) (int_bound 2))
    >>= fun p -> return (r, p)
  in
  let print (r, _) = show r in
  prop "pad" gen print (fun (r, paddings) ->
      same (ref_pad r paddings) (to_ref (O.pad (of_ref r) ~paddings)))
  @ prop "SliceGrad" slice_gen print_slice (fun (r, begin_, size) ->
        (* dy is the slice itself; its gradient pads it back into x. *)
        let dy = ref_slice r begin_ size in
        let paddings =
          Array.mapi (fun d b -> (b, r.sh.(d) - b - dy.sh.(d))) begin_
        in
        same_list [ ref_pad dy paddings ]
          (run_kernel "SliceGrad" [ r; dy ]
             ~attrs:[ ints_attr "begin" begin_ ]))
  @ prop "PadGrad" gen print (fun (x, paddings) ->
        let dy = ref_pad x paddings in
        same_list
          [ ref_slice dy (Array.map fst paddings) x.sh ]
          (run_kernel "PadGrad" [ x; dy ]
             ~attrs:[ ("paddings", Attr.Ints (flat_pairs paddings)) ]))

let concat_gen =
  dtype_gen >>= fun dt ->
  shape_gen ~min_rank:1 >>= fun sh ->
  axis_gen (Shape.rank sh) >>= fun axis ->
  list_size (int_range 1 3)
    (int_bound 3 >>= fun n ->
     let s = Array.copy sh in
     s.(norm_axis (Shape.rank sh) axis) <- n;
     tensor_gen dt s)
  >>= fun rs -> return (rs, axis)

let print_concat (rs, axis) =
  Printf.sprintf "axis=%d %s" axis (String.concat "; " (List.map show rs))

let concat_props =
  prop "concat" concat_gen print_concat (fun (rs, axis) ->
      same (ref_concat rs axis) (to_ref (O.concat (List.map of_ref rs) ~axis)))
  @ prop "ConcatGrad" concat_gen print_concat (fun (xs, axis) ->
        let dy = ref_concat xs axis in
        let a = norm_axis (Shape.rank dy.sh) axis in
        let _, expected =
          List.fold_left
            (fun (at, acc) x ->
              let begin_ = Array.make (Shape.rank x.sh) 0 in
              begin_.(a) <- at;
              (at + x.sh.(a), ref_slice dy begin_ x.sh :: acc))
            (0, []) xs
        in
        same_list (List.rev expected)
          (run_kernel "ConcatGrad" (dy :: xs)
             ~attrs:
               [ ("axis", Attr.Int axis); ("n", Attr.Int (List.length xs)) ]))

let split_props =
  let gen =
    data_gen ~min_rank:1 () >>= fun r ->
    axis_gen (Shape.rank r.sh) >>= fun axis ->
    let n = r.sh.(norm_axis (Shape.rank r.sh) axis) in
    oneofl (List.filter (fun k -> n mod k = 0) [ 1; 2; 3; 4; 5 ]) >>= fun num ->
    return (r, axis, num)
  in
  let print (r, axis, num) =
    Printf.sprintf "%s axis=%d num=%d" (show r) axis num
  in
  prop "split" gen print (fun (r, axis, num) ->
      let a = norm_axis (Shape.rank r.sh) axis in
      let piece = r.sh.(a) / num in
      let expected =
        List.init num (fun i ->
            let begin_ = Array.make (Shape.rank r.sh) 0 in
            begin_.(a) <- i * piece;
            let size = Array.copy r.sh in
            size.(a) <- piece;
            ref_slice r begin_ size)
      in
      same_list expected (List.map to_ref (O.split (of_ref r) ~axis ~num)))

let tile_props =
  let gen =
    data_gen () >>= fun r ->
    array_repeat (Shape.rank r.sh) (int_bound 3) >>= fun m -> return (r, m)
  in
  let print (r, m) =
    Printf.sprintf "%s multiples=%s" (show r) (Shape.to_string m)
  in
  prop "tile" gen print (fun (r, multiples) ->
      same (ref_tile r multiples) (to_ref (O.tile (of_ref r) ~multiples)))

let transpose_props =
  let gen =
    data_gen () >>= fun r ->
    (fun st ->
      let perm = Array.init (Shape.rank r.sh) Fun.id in
      shuffle_a perm st;
      perm)
    >>= fun perm ->
    opt (return perm) >>= fun perm -> return (r, perm)
  in
  let print (r, perm) =
    Printf.sprintf "%s perm=%s" (show r)
      (match perm with Some p -> Shape.to_string p | None -> "default")
  in
  prop "transpose" gen print (fun (r, perm) ->
      let rank = Shape.rank r.sh in
      let p =
        Option.value perm ~default:(Array.init rank (fun i -> rank - 1 - i))
      in
      same (ref_transpose r p) (to_ref (O.transpose ?perm (of_ref r))))

let broadcast_props =
  let gen =
    dtype_gen >>= fun dt ->
    shape_gen ~min_rank:0 >>= fun target ->
    let rank = Shape.rank target in
    int_bound rank >>= fun drop ->
    array_repeat (rank - drop) bool >>= fun ones ->
    let sh =
      Array.mapi (fun d one -> if one then 1 else target.(d + drop)) ones
    in
    tensor_gen dt sh >>= fun r -> return (r, target)
  in
  let print (r, target) =
    Printf.sprintf "%s -> %s" (show r) (Shape.to_string target)
  in
  prop "broadcast_to" gen print (fun (r, target) ->
      same (ref_broadcast_to r target)
        (to_ref (O.broadcast_to (of_ref r) target)))

let index_gen ~bound =
  shape_gen ~min_rank:0 >>= fun sh ->
  let sh = Array.map (min 3) sh in
  map
    (fun el -> { dt = Dtype.I32; sh; el })
    (array_repeat (Shape.numel sh) (map (fun i -> I i) (int_bound (bound - 1))))

let gather_props =
  let gen =
    data_gen ~min_rank:1 () >>= fun r ->
    let r =
      if r.sh.(0) = 0 then
        let sh = Array.append [| 1 |] (tail r.sh) in
        { r with sh; el = Array.make (Shape.numel sh) (zero_elt r.dt) }
      else r
    in
    index_gen ~bound:r.sh.(0) >>= fun ix -> return (r, ix)
  in
  let print (r, ix) = Printf.sprintf "%s indices=%s" (show r) (show ix) in
  prop "gather" gen print (fun (params, indices) ->
      same (ref_gather params indices)
        (to_ref (O.gather (of_ref params) (of_ref indices))))
  @ prop "gather index out of range raises" gen print (fun (params, indices) ->
        let bad = { indices with sh = [| 2 |]; el = [| I 0; I (-1) |] } in
        let bad' = { bad with el = [| I params.sh.(0); I 0 |] } in
        List.for_all
          (fun ix ->
            match O.gather (of_ref params) (of_ref ix) with
            | _ -> false
            | exception Invalid_argument _ -> true)
          [ bad; bad' ])

let partition_gen =
  data_gen () >>= fun r ->
  int_range 1 3 >>= fun num ->
  let nrows = if Shape.rank r.sh = 0 then 1 else r.sh.(0) in
  array_repeat nrows (int_bound (num - 1)) >>= fun p ->
  let psh = if Shape.rank r.sh = 0 then [||] else [| nrows |] in
  return (r, { dt = Dtype.I32; sh = psh; el = Array.map (fun x -> I x) p }, num)

let print_partition (r, p, num) =
  Printf.sprintf "%s partitions=%s num=%d" (show r) (show p) num

let partition_props =
  prop "dynamic_partition" partition_gen print_partition (fun (r, p, num) ->
      same_list (ref_dynamic_partition r p num)
        (List.map to_ref (O.dynamic_partition (of_ref r) (of_ref p) ~num)))
  @ prop "DynamicPartitionGrad" partition_gen print_partition
      (fun (r, p, num) ->
        let dys = ref_dynamic_partition r p num in
        same_list
          [ ref_dynamic_partition_grad p dys ]
          (run_kernel "DynamicPartitionGrad" (p :: dys)
             ~attrs:[ ("num_partitions", Attr.Int num) ]))

let stitch_props =
  let gen =
    dtype_gen >>= fun dt ->
    array_repeat 2 (int_bound 3) >>= fun tail_sh ->
    int_range 1 6 >>= fun nrows ->
    list_size (int_range 1 3)
      (int_bound 4 >>= fun k ->
       array_repeat k (int_bound (nrows - 1)) >>= fun ix ->
       tensor_gen dt (Array.append [| k |] tail_sh) >>= fun d ->
       let el = Array.map (fun x -> I x) ix in
       return ({ dt = Dtype.I32; sh = [| k |]; el }, d))
  in
  let print pairs =
    String.concat "; "
      (List.map
         (fun (ix, d) -> Printf.sprintf "%s <- %s" (show ix) (show d))
         pairs)
  in
  prop "dynamic_stitch" gen print (fun pairs ->
      let ixs, ds = List.split pairs in
      same (ref_dynamic_stitch ixs ds)
        (to_ref (O.dynamic_stitch (List.map of_ref ixs) (List.map of_ref ds))))

let pack_props =
  let gen =
    dtype_gen >>= fun dt ->
    shape_gen ~min_rank:0 >>= fun sh ->
    list_size (int_range 1 3) (tensor_gen dt sh)
  in
  let print rs = String.concat "; " (List.map show rs) in
  prop "Pack" gen print (fun rs ->
      same_list [ ref_stack rs ]
        (run_kernel "Pack" rs))

(* The gradients of tile and of the reductions add, so they are checked
   on F32 only, against references that add in the kernels' order:
   ascending flat index of dy, from +0.0. *)
let f32_gen = shape_gen ~min_rank:0 >>= tensor_gen Dtype.F32

let floats r =
  Array.map (function F b -> Int64.float_of_bits b | _ -> assert false) r.el

let of_floats sh a =
  { dt = Dtype.F32; sh; el = Array.map (fun x -> F (Int64.bits_of_float x)) a }

let tile_grad_props =
  let gen =
    f32_gen >>= fun x ->
    array_repeat (Shape.rank x.sh) (int_bound 3) >>= fun m ->
    tensor_gen Dtype.F32 (Array.mapi (fun d n -> n * m.(d)) x.sh) >>= fun dy ->
    return (x, dy)
  in
  let print (x, dy) = Printf.sprintf "x=%s dy=%s" (show x) (show dy) in
  prop "TileGrad" gen print (fun (x, dy) ->
      let acc = Array.make (Shape.numel x.sh) 0.0 and g = floats dy in
      Array.iteri
        (fun i v ->
          let idx = Shape.multi_index dy.sh i in
          let o =
            Shape.flat_index x.sh (Array.mapi (fun d k -> k mod x.sh.(d)) idx)
          in
          acc.(o) <- acc.(o) +. v)
        g;
      same_list [ of_floats x.sh acc ] (run_kernel "TileGrad" [ x; dy ]))

(* The axes of a rank-[rank] input that [axes] keeps ([[]] reduces all). *)
let kept_axes axes rank =
  List.filter
    (fun d -> not (axes = [] || List.mem d axes || List.mem (d - rank) axes))
    (List.init rank Fun.id)

let reduce_grad_props =
  let gen =
    f32_gen >>= fun x ->
    let rank = Shape.rank x.sh in
    list_repeat rank bool >>= fun picks ->
    let axes =
      List.filteri (fun d _ -> List.nth picks d) (List.init rank Fun.id)
    in
    flatten_l (List.map (fun a -> oneofl [ a; a - rank ]) axes) >>= fun axes ->
    let kept = kept_axes axes rank in
    tensor_gen Dtype.F32 (Array.of_list (List.map (fun d -> x.sh.(d)) kept))
    >>= fun dy -> bool >>= fun mean -> return (x, dy, axes, mean)
  in
  let print (x, dy, axes, mean) =
    Printf.sprintf "x=%s dy=%s axes=[%s] mean=%b" (show x) (show dy)
      (String.concat ";" (List.map string_of_int axes)) mean
  in
  prop "ReduceSumGrad/ReduceMeanGrad" gen print (fun (x, dy, axes, mean) ->
      let kept = kept_axes axes (Shape.rank x.sh) in
      let group = ref 1 in
      Array.iteri
        (fun d n -> if not (List.mem d kept) then group := !group * n)
        x.sh;
      let scale = 1.0 /. float_of_int !group and g = floats dy in
      let expected =
        build Dtype.F32 x.sh (fun idx ->
            let v =
              g.(Shape.flat_index dy.sh
                   (Array.of_list (List.map (fun d -> idx.(d)) kept)))
            in
            F (Int64.bits_of_float (if mean then v *. scale else v)))
      in
      same_list [ expected ]
        (run_kernel
           (if mean then "ReduceMeanGrad" else "ReduceSumGrad")
           [ x; dy ] ~attrs:[ ("axes", Attr.Ints axes) ]))

(* ------------------------------------------------------------------ *)
(* Mixed dtypes fail loudly                                            *)
(* ------------------------------------------------------------------ *)

let f32 = Tensor.of_float_array [| 2 |] [| 1.0; 2.0 |]

let i64 = Tensor.of_int_array ~dtype:Dtype.I64 [| 2 |] [| 1; big_int |]

let raises_naming_both what f =
  match f () with
  | _ -> Alcotest.failf "%s: mixed dtypes were accepted" what
  | exception Invalid_argument msg ->
      let has s =
        let n = String.length s in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = s || go (i + 1))
        in
        go 0
      in
      if not (has "float32" && has "int64") then
        Alcotest.failf "%s: message %S does not name both dtypes" what msg

let test_mixed_dtypes () =
  raises_naming_both "concat" (fun () -> O.concat [ f32; i64 ] ~axis:0);
  raises_naming_both "Pack" (fun () ->
      run_kernel "Pack" [ to_ref f32; to_ref i64 ]);
  raises_naming_both "dynamic_stitch" (fun () ->
      O.dynamic_stitch
        [
          Tensor.of_int_array [| 2 |] [| 0; 1 |];
          Tensor.of_int_array [| 2 |] [| 2; 3 |];
        ]
        [ f32; i64 ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    (slice_props @ pad_props @ concat_props @ split_props @ tile_props
   @ transpose_props @ broadcast_props @ gather_props @ partition_props
   @ stitch_props @ pack_props @ tile_grad_props @ reduce_grad_props)
  @ [ Alcotest.test_case "mixed dtypes raise" `Quick test_mixed_dtypes ]
