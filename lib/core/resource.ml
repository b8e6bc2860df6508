open Octf_tensor

type variable = {
  var_name : string;
  var_dtype : Dtype.t;
  var_shape : Shape.t;
  mutable value : Tensor.t option;
  mutable version : int;
  mutable shared : bool;
  var_mutex : Mutex.t;
}

type iterator = {
  it_name : string;
  mutable it_records : string list;
  it_mutex : Mutex.t;
}

type tensor_array = {
  ta_name : string;
  mutable ta_items : Tensor.t option array;
  ta_mutex : Mutex.t;
}

type t =
  | Variable of variable
  | Queue of Queue_impl.t
  | Iterator of iterator
  | Tensor_array of tensor_array

let make_variable ~name ~dtype ~shape =
  { var_name = name; var_dtype = dtype; var_shape = shape; value = None;
    version = 0; shared = false; var_mutex = Mutex.create () }

let with_lock v f =
  Mutex.lock v.var_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock v.var_mutex) f

let current v ~what =
  match v.value with
  | Some t -> t
  | None ->
      failwith
        (Printf.sprintf "variable %S %s before initialization" v.var_name what)

(* Hands the current buffer out: the next update copies it first. *)
let variable_read v =
  with_lock v (fun () ->
      let t = current v ~what:"read" in
      v.shared <- true;
      t)

let check_compatible v t =
  if not (Dtype.equal (Tensor.dtype t) v.var_dtype) then
    invalid_arg
      (Printf.sprintf "variable %S: assigning %s to %s" v.var_name
         (Dtype.to_string (Tensor.dtype t))
         (Dtype.to_string v.var_dtype));
  if Shape.rank v.var_shape > 0 && not (Shape.equal (Tensor.shape t) v.var_shape)
  then
    invalid_arg
      (Printf.sprintf "variable %S: assigning shape %s to %s" v.var_name
         (Shape.to_string (Tensor.shape t))
         (Shape.to_string v.var_shape))

let variable_assign v t =
  check_compatible v t;
  with_lock v (fun () ->
      v.value <- Some (Tensor.copy t);
      v.shared <- false;
      v.version <- v.version + 1)

(* Install a buffer the variable owns, unless the caller hands it out
   as its own output. *)
let install v ~hand_out t =
  v.value <- Some t;
  v.shared <- hand_out;
  v.version <- v.version + 1;
  t

let variable_update ~hand_out v f =
  with_lock v (fun () -> install v ~hand_out (f (current v ~what:"updated")))

(* Copy only while shared: a buffer no Read, peek or output holds is
   written where it lies. [f] raises before writing, or not at all, so
   a failed update leaves the value as it was. *)
let variable_update_in_place ~hand_out v f =
  with_lock v (fun () ->
      let old = current v ~what:"updated" in
      let t = if v.shared then Tensor.copy old else old in
      f t;
      install v ~hand_out t)

let variable_gather v indices =
  with_lock v (fun () -> Tensor_ops.gather (current v ~what:"read") indices)

let variable_version v = with_lock v (fun () -> v.version)

let variable_peek v =
  with_lock v (fun () ->
      match v.value with
      | None -> None
      | Some t ->
          v.shared <- true;
          Some (t, v.version))

let make_iterator ~name ~records =
  { it_name = name; it_records = records; it_mutex = Mutex.create () }

let iterator_next it =
  Mutex.lock it.it_mutex;
  let r =
    match it.it_records with
    | [] -> None
    | x :: rest ->
        it.it_records <- rest;
        Some x
  in
  Mutex.unlock it.it_mutex;
  r

let make_tensor_array ~name =
  { ta_name = name; ta_items = [||]; ta_mutex = Mutex.create () }

let ta_lock ta f =
  Mutex.lock ta.ta_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock ta.ta_mutex) f

let tensor_array_write ta index v =
  if index < 0 then invalid_arg "tensor_array_write: negative index";
  ta_lock ta (fun () ->
      let cap = Array.length ta.ta_items in
      if index >= cap then begin
        let fresh = Array.make (max 8 (2 * (index + 1))) None in
        Array.blit ta.ta_items 0 fresh 0 cap;
        ta.ta_items <- fresh
      end;
      match ta.ta_items.(index) with
      | Some _ ->
          invalid_arg
            (Printf.sprintf "tensor array %S: double write at %d" ta.ta_name
               index)
      | None -> ta.ta_items.(index) <- Some v)

let tensor_array_read ta index =
  ta_lock ta (fun () ->
      match
        if index >= 0 && index < Array.length ta.ta_items then
          ta.ta_items.(index)
        else None
      with
      | Some v -> v
      | None ->
          failwith
            (Printf.sprintf "tensor array %S: read of unwritten index %d"
               ta.ta_name index))

let tensor_array_size ta =
  ta_lock ta (fun () ->
      let hi = ref 0 in
      Array.iteri
        (fun i v -> if v <> None then hi := max !hi (i + 1))
        ta.ta_items;
      !hi)

let tensor_array_stack ta =
  let size = tensor_array_size ta in
  ta_lock ta (fun () ->
      List.init size (fun i ->
          match ta.ta_items.(i) with
          | Some v -> v
          | None ->
              failwith
                (Printf.sprintf "tensor array %S: hole at index %d" ta.ta_name
                   i)))

let name = function
  | Variable v -> v.var_name
  | Queue q -> Queue_impl.name q
  | Iterator it -> it.it_name
  | Tensor_array ta -> ta.ta_name

let pp fmt = function
  | Variable v ->
      Format.fprintf fmt "variable:%s(%s %s)" v.var_name
        (Dtype.to_string v.var_dtype)
        (Shape.to_string v.var_shape)
  | Queue q -> Format.fprintf fmt "queue:%s" (Queue_impl.name q)
  | Iterator it ->
      Format.fprintf fmt "iterator:%s(%d records left)" it.it_name
        (List.length it.it_records)
  | Tensor_array ta ->
      Format.fprintf fmt "tensor_array:%s(%d)" ta.ta_name
        (tensor_array_size ta)
