type buffer =
  | Float_buf of float array
  | Int_buf of int array
  | Byte_buf of Bytes.t  (* U8: packed, one byte per element (§5 codes) *)
  | Bool_buf of bool array
  | String_buf of string array

type t = { dtype : Dtype.t; shape : Shape.t; buf : buffer }

let buffer_length = function
  | Float_buf a -> Array.length a
  | Int_buf a -> Array.length a
  | Byte_buf b -> Bytes.length b
  | Bool_buf a -> Array.length a
  | String_buf a -> Array.length a

let buffer_matches dtype buf =
  match (dtype, buf) with
  | (Dtype.F32 | Dtype.F64), Float_buf _ -> true
  | (Dtype.I32 | Dtype.I64), Int_buf _ -> true
  | Dtype.U8, Byte_buf _ -> true
  | Dtype.Bool, Bool_buf _ -> true
  | Dtype.String, String_buf _ -> true
  | _ -> false

let create dtype shape buf =
  Shape.validate shape;
  if not (buffer_matches dtype buf) then
    invalid_arg "Tensor.create: buffer kind does not match dtype";
  if buffer_length buf <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.create: buffer length %d does not match %s"
         (buffer_length buf) (Shape.to_string shape));
  { dtype; shape; buf }

let alloc ~zero dtype shape =
  let n = Shape.numel shape in
  let buf =
    match dtype with
    | Dtype.F32 | Dtype.F64 -> Float_buf (Buffer_pool.alloc_float ~zero n)
    | Dtype.I32 | Dtype.I64 -> Int_buf (Array.make n 0)
    | Dtype.U8 ->
        Byte_buf (if zero then Bytes.make n '\000' else Bytes.create n)
    | Dtype.Bool -> Bool_buf (Array.make n false)
    | Dtype.String -> String_buf (Array.make n "")
  in
  create dtype shape buf

let zeros dtype shape = alloc ~zero:true dtype shape

let empty dtype shape = alloc ~zero:false dtype shape

let full dtype shape v =
  let t = empty dtype shape in
  (match t.buf with
  | Float_buf a -> Array.fill a 0 (Array.length a) v
  | Int_buf a -> Array.fill a 0 (Array.length a) (int_of_float v)
  | Byte_buf b ->
      Bytes.fill b 0 (Bytes.length b)
        (Char.chr (max 0 (min 255 (int_of_float v))))
  | Bool_buf a -> Array.fill a 0 (Array.length a) (v <> 0.0)
  | String_buf _ -> invalid_arg "Tensor.full: string tensor");
  t

let ones dtype shape = full dtype shape 1.0

let scalar_f ?(dtype = Dtype.F32) v = create dtype [||] (Float_buf [| v |])

let scalar_i ?(dtype = Dtype.I32) v = create dtype [||] (Int_buf [| v |])

let scalar_b v = create Dtype.Bool [||] (Bool_buf [| v |])

let scalar_s v = create Dtype.String [||] (String_buf [| v |])

let of_float_array ?(dtype = Dtype.F32) shape a =
  create dtype shape (Float_buf a)

let of_int_array ?(dtype = Dtype.I32) shape a = create dtype shape (Int_buf a)

let of_bool_array shape a = create Dtype.Bool shape (Bool_buf a)

let of_bytes shape b = create Dtype.U8 shape (Byte_buf b)

let of_string_array shape a = create Dtype.String shape (String_buf a)

let init_f ?(dtype = Dtype.F32) shape f =
  let n = Shape.numel shape in
  let a = Array.init n (fun i -> f (Shape.multi_index shape i)) in
  of_float_array ~dtype shape a

let iota ?(dtype = Dtype.I32) n =
  create dtype [| n |] (Int_buf (Array.init n (fun i -> i)))

let uniform ?(dtype = Dtype.F32) rng shape ~lo ~hi =
  let n = Shape.numel shape in
  of_float_array ~dtype shape (Array.init n (fun _ -> Rng.uniform rng ~lo ~hi))

let normal ?(dtype = Dtype.F32) rng shape ~mean ~stddev =
  let n = Shape.numel shape in
  of_float_array ~dtype shape
    (Array.init n (fun _ -> Rng.normal rng ~mean ~stddev))

let dtype t = t.dtype

let shape t = t.shape

let rank t = Shape.rank t.shape

let numel t = Shape.numel t.shape

let byte_size t = numel t * Dtype.byte_size t.dtype

let float_buffer t =
  match t.buf with
  | Float_buf a -> a
  | Int_buf _ | Byte_buf _ | Bool_buf _ | String_buf _ ->
      invalid_arg "Tensor.float_buffer: not a float tensor"

let int_buffer t =
  match t.buf with
  | Int_buf a -> a
  | Float_buf _ | Byte_buf _ | Bool_buf _ | String_buf _ ->
      invalid_arg "Tensor.int_buffer: not an int tensor"

let byte_buffer t =
  match t.buf with
  | Byte_buf b -> b
  | Float_buf _ | Int_buf _ | Bool_buf _ | String_buf _ ->
      invalid_arg "Tensor.byte_buffer: not a uint8 tensor"

let bool_buffer t =
  match t.buf with
  | Bool_buf a -> a
  | Float_buf _ | Int_buf _ | Byte_buf _ | String_buf _ ->
      invalid_arg "Tensor.bool_buffer: not a bool tensor"

let string_buffer t =
  match t.buf with
  | String_buf a -> a
  | Float_buf _ | Int_buf _ | Byte_buf _ | Bool_buf _ ->
      invalid_arg "Tensor.string_buffer: not a string tensor"

let flat_get_f t i =
  match t.buf with
  | Float_buf a -> a.(i)
  | Int_buf a -> float_of_int a.(i)
  | Byte_buf b -> float_of_int (Char.code (Bytes.get b i))
  | Bool_buf a -> if a.(i) then 1.0 else 0.0
  | String_buf _ -> invalid_arg "Tensor.flat_get_f: string tensor"

let flat_get_i t i =
  match t.buf with
  | Int_buf a -> a.(i)
  | Float_buf a -> int_of_float a.(i)
  | Byte_buf b -> Char.code (Bytes.get b i)
  | Bool_buf a -> if a.(i) then 1 else 0
  | String_buf _ -> invalid_arg "Tensor.flat_get_i: string tensor"

let flat_set_f t i v =
  match t.buf with
  | Float_buf a -> a.(i) <- v
  | Int_buf a -> a.(i) <- int_of_float v
  | Byte_buf b -> Bytes.set b i (Char.chr (max 0 (min 255 (int_of_float v))))
  | Bool_buf a -> a.(i) <- v <> 0.0
  | String_buf _ -> invalid_arg "Tensor.flat_set_f: string tensor"

let flat_set_i t i v =
  match t.buf with
  | Int_buf a -> a.(i) <- v
  | Float_buf a -> a.(i) <- float_of_int v
  | Byte_buf b -> Bytes.set b i (Char.chr (max 0 (min 255 v)))
  | Bool_buf a -> a.(i) <- v <> 0
  | String_buf _ -> invalid_arg "Tensor.flat_set_i: string tensor"

let get_f t idx = flat_get_f t (Shape.flat_index t.shape idx)

let get_i t idx = flat_get_i t (Shape.flat_index t.shape idx)

let get_s t idx = (string_buffer t).(Shape.flat_index t.shape idx)

let to_float_array t = Array.init (numel t) (fun i -> flat_get_f t i)

let to_int_array t = Array.init (numel t) (fun i -> flat_get_i t i)

let copy t =
  let buf =
    match t.buf with
    | Float_buf a -> Float_buf (Array.copy a)
    | Int_buf a -> Int_buf (Array.copy a)
    | Byte_buf b -> Byte_buf (Bytes.copy b)
    | Bool_buf a -> Bool_buf (Array.copy a)
    | String_buf a -> String_buf (Array.copy a)
  in
  { t with buf }

(* Elementwise loops shard over the flat index space; below this many
   elements the dispatch overhead outweighs the loop and the sharder
   runs inline. *)
let elementwise_grain = 8192

(* Strided copy: the outer loop walks rows of the coalesced box, sharded
   at [elementwise_grain] elements, and each row is one blit or one
   strided loop. *)
let strided_row s d len ss ds =
  if ss = 1 && ds = 1 then fun so dof -> Array.blit s so d dof len
  else fun so dof ->
    for j = 0 to len - 1 do
      Array.unsafe_set d (dof + (j * ds)) (Array.unsafe_get s (so + (j * ss)))
    done

(* [strided_row] again at a monomorphic type, so floats move unboxed. *)
let strided_row_f (s : float array) (d : float array) len ss ds =
  if ss = 1 && ds = 1 then fun so dof -> Array.blit s so d dof len
  else fun so dof ->
    for j = 0 to len - 1 do
      Array.unsafe_set d (dof + (j * ds)) (Array.unsafe_get s (so + (j * ss)))
    done

let blit_strided ~src ~src_off ~src_strides ~dst ~dst_off ~dst_strides dims =
  let r = Array.length dims in
  if Array.length src_strides <> r || Array.length dst_strides <> r then
    invalid_arg "Tensor.blit_strided: strides and dims differ in rank";
  if not (Dtype.equal src.dtype dst.dtype) then
    invalid_arg
      (Printf.sprintf "Tensor.blit_strided: dtype mismatch %s vs %s"
         (Dtype.to_string src.dtype) (Dtype.to_string dst.dtype));
  (* Every bound is checked here, once: the row loops below index
     unchecked. *)
  let last_s = ref src_off and last_d = ref dst_off in
  Array.iteri
    (fun d n ->
      if n < 0 || src_strides.(d) < 0 || dst_strides.(d) < 0 then
        invalid_arg "Tensor.blit_strided: negative dim or stride";
      last_s := !last_s + ((n - 1) * src_strides.(d));
      last_d := !last_d + ((n - 1) * dst_strides.(d)))
    dims;
  if Array.for_all (fun n -> n > 0) dims then begin
    if src_off < 0 || dst_off < 0
       || !last_s >= buffer_length src.buf
       || !last_d >= buffer_length dst.buf
    then invalid_arg "Tensor.blit_strided: copy out of bounds";
    (* Coalesce: drop unit dims and merge each dim into its outer
       neighbour when both strides continue it. *)
    let cd = Array.make (max 1 r) 1 in
    let cs = Array.make (max 1 r) 1 and ct = Array.make (max 1 r) 1 in
    let k = ref 0 in
    Array.iteri
      (fun d n ->
        let s = src_strides.(d) and t = dst_strides.(d) in
        if n <> 1 then begin
          let merge = !k > 0 && cs.(!k - 1) = s * n && ct.(!k - 1) = t * n in
          if merge then decr k;
          cd.(!k) <- (if merge then cd.(!k) * n else n);
          cs.(!k) <- s;
          ct.(!k) <- t;
          incr k
        end)
      dims;
    let inner = max 0 (!k - 1) in
    let len = cd.(inner) and ss = cs.(inner) and ds = ct.(inner) in
    let row =
      match (src.buf, dst.buf) with
      | Float_buf s, Float_buf d -> strided_row_f s d len ss ds
      | Int_buf s, Int_buf d -> strided_row s d len ss ds
      | Bool_buf s, Bool_buf d -> strided_row s d len ss ds
      | String_buf s, String_buf d -> strided_row s d len ss ds
      | Byte_buf s, Byte_buf d ->
          if ss = 1 && ds = 1 then fun so dof -> Bytes.blit s so d dof len
          else fun so dof ->
            for j = 0 to len - 1 do
              Bytes.unsafe_set d (dof + (j * ds))
                (Bytes.unsafe_get s (so + (j * ss)))
            done
      | _ -> invalid_arg "Tensor.blit_strided: buffer kind mismatch"
    in
    let rows = Array.fold_left ( * ) 1 dims / len in
    let grain = max 1 (elementwise_grain / len) in
    Parallel.parallel_for ~grain rows (fun lo hi ->
        for i = lo to hi - 1 do
          let q = ref i and so = ref src_off and dof = ref dst_off in
          for d = inner - 1 downto 0 do
            let x = !q mod cd.(d) in
            q := !q / cd.(d);
            so := !so + (x * cs.(d));
            dof := !dof + (x * ct.(d))
          done;
          row !so !dof
        done)
  end

let reshape t new_shape =
  let inferred =
    let minus_ones = Array.to_list new_shape |> List.filter (fun d -> d = -1) in
    match minus_ones with
    | [] -> new_shape
    | [ _ ] ->
        let known =
          Array.fold_left (fun acc d -> if d = -1 then acc else acc * d) 1
            new_shape
        in
        if known = 0 || numel t mod known <> 0 then
          invalid_arg "Tensor.reshape: cannot infer dimension";
        Array.map (fun d -> if d = -1 then numel t / known else d) new_shape
    | _ -> invalid_arg "Tensor.reshape: more than one -1 dimension"
  in
  if Shape.numel inferred <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: %s -> %s element count mismatch"
         (Shape.to_string t.shape)
         (Shape.to_string inferred));
  { t with shape = inferred }

let cast t new_dtype =
  if Dtype.equal t.dtype new_dtype then copy t
  else
    match new_dtype with
    | Dtype.F32 | Dtype.F64 ->
        of_float_array ~dtype:new_dtype t.shape (to_float_array t)
    | Dtype.I32 | Dtype.I64 ->
        of_int_array ~dtype:new_dtype t.shape (to_int_array t)
    | Dtype.U8 ->
        let n = numel t in
        let b = Bytes.create n in
        for i = 0 to n - 1 do
          Bytes.set b i (Char.chr (max 0 (min 255 (flat_get_i t i))))
        done;
        of_bytes t.shape b
    | Dtype.Bool ->
        of_bool_array t.shape
          (Array.init (numel t) (fun i -> flat_get_f t i <> 0.0))
    | Dtype.String -> invalid_arg "Tensor.cast: cannot cast to string"

(* The executor may hand an input's backing buffer as [out] (in-place
   grant). The elementwise engine (Fused_eval) reads index [i] before
   writing index [i], so aliasing input and output is safe; buffers of
   the wrong length are ignored and a fresh one is allocated. *)
let use_or_alloc out n =
  match out with
  | Some o when Array.length o = n -> o
  | _ -> Buffer_pool.alloc_float ~zero:false n

(* Broadcast iteration: map an output flat index back into an operand by
   a precomputed per-dimension stride plan (stride 0 on broadcast
   dimensions), avoiding any per-element allocation. *)
type bplan = {
  bp_out_strides : int array;
  bp_out_dims : int array;
  bp_src_strides : int array;
}

let broadcast_strides t out_shape =
  let r = Shape.rank out_shape and rt = rank t in
  let src_strides = Shape.strides t.shape in
  Array.init r (fun d ->
      let td = d - (r - rt) in
      if td < 0 || t.shape.(td) = 1 then 0 else src_strides.(td))

let broadcast_plan t out_shape =
  {
    bp_out_strides = Shape.strides out_shape;
    bp_out_dims = Array.copy out_shape;
    bp_src_strides = broadcast_strides t out_shape;
  }

let plan_index plan i =
  let acc = ref 0 in
  for d = 0 to Array.length plan.bp_src_strides - 1 do
    let s = plan.bp_src_strides.(d) in
    if s <> 0 then
      acc := !acc + (i / plan.bp_out_strides.(d) mod plan.bp_out_dims.(d)) * s
  done;
  !acc

let broadcast_index t out_shape =
  if Shape.equal t.shape out_shape then fun i -> i
  else begin
    let plan = broadcast_plan t out_shape in
    fun i -> plan_index plan i
  end

let fold_f f init t =
  let acc = ref init in
  for i = 0 to numel t - 1 do
    acc := f !acc (flat_get_f t i)
  done;
  !acc

let equal a b =
  Dtype.equal a.dtype b.dtype && Shape.equal a.shape b.shape && a.buf = b.buf

let approx_equal ?(tol = 1e-6) a b =
  Shape.equal a.shape b.shape
  &&
  let ok = ref true in
  for i = 0 to numel a - 1 do
    if Float.abs (flat_get_f a i -. flat_get_f b i) > tol then ok := false
  done;
  !ok

let to_string t =
  let n = numel t in
  let max_show = 16 in
  let elt i =
    match t.buf with
    | Float_buf a -> Printf.sprintf "%g" a.(i)
    | Int_buf a -> string_of_int a.(i)
    | Byte_buf b -> string_of_int (Char.code (Bytes.get b i))
    | Bool_buf a -> string_of_bool a.(i)
    | String_buf a -> Printf.sprintf "%S" a.(i)
  in
  let shown = min n max_show in
  let body = String.concat " " (List.init shown elt) in
  let suffix = if n > max_show then " ..." else "" in
  Printf.sprintf "%s%s(%s %s)" body suffix
    (Dtype.to_string t.dtype)
    (Shape.to_string t.shape)

let pp fmt t = Format.pp_print_string fmt (to_string t)
