exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* Writers ------------------------------------------------------------ *)

let put_u8 b i = Buffer.add_char b (Char.chr (i land 0xFF))

let put_u32 b i = Buffer.add_int32_le b (Int32.of_int i)

let put_i64 b i = Buffer.add_int64_le b (Int64.of_int i)

let put_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b put xs =
  put_u32 b (List.length xs);
  List.iter (put b) xs

let put_option b put = function
  | None -> put_u8 b 0
  | Some x ->
      put_u8 b 1;
      put b x

(* Readers ------------------------------------------------------------ *)

type reader = { buf : string; mutable pos : int }

let reader s = { buf = s; pos = 0 }

let remaining r = String.length r.buf - r.pos

let need r n what =
  if n < 0 || remaining r < n then
    fail "truncated %s (%d bytes needed, %d left)" what n (remaining r)

let advance r n v =
  r.pos <- r.pos + n;
  v

let get_u8 r =
  need r 1 "byte";
  advance r 1 (Char.code r.buf.[r.pos])

let get_u32 r =
  need r 4 "u32";
  advance r 4 (Int32.to_int (String.get_int32_le r.buf r.pos) land 0xFFFFFFFF)

let get_i64 r =
  need r 8 "i64";
  advance r 8 (Int64.to_int (String.get_int64_le r.buf r.pos))

let get_f64 r =
  need r 8 "f64";
  advance r 8 (Int64.float_of_bits (String.get_int64_le r.buf r.pos))

let get_bytes r n what =
  need r n what;
  advance r n (String.sub r.buf r.pos n)

let get_string r = get_bytes r (get_u32 r) "string body"

let get_list r get =
  let n = get_u32 r in
  (* Every element consumes at least one byte; a count beyond the
     remaining payload is corrupt, not a huge allocation request. *)
  if n > remaining r then fail "list length %d exceeds payload" n;
  List.init n (fun _ -> get r)

let get_option r get =
  match get_u8 r with
  | 0 -> None
  | 1 -> Some (get r)
  | t -> fail "bad option tag %d" t

let expect_end r =
  if remaining r <> 0 then fail "%d trailing bytes in payload" (remaining r)

(* Tensors ------------------------------------------------------------ *)

let max_rank = 64

let put_tensor b t =
  put_string b (Dtype.to_string (Tensor.dtype t));
  let shape = Tensor.shape t in
  put_u32 b (Shape.rank shape);
  Array.iter (put_i64 b) shape;
  let n = Tensor.numel t in
  put_u32 b n;
  match Tensor.dtype t with
  | Dtype.F32 | Dtype.F64 ->
      for i = 0 to n - 1 do
        put_f64 b (Tensor.flat_get_f t i)
      done
  | Dtype.I32 | Dtype.I64 | Dtype.Bool ->
      for i = 0 to n - 1 do
        put_i64 b (Tensor.flat_get_i t i)
      done
  | Dtype.U8 -> Buffer.add_bytes b (Tensor.byte_buffer t)
  | Dtype.String -> Array.iter (put_string b) (Tensor.string_buffer t)

(* Smallest encoded size of one element: the bound that keeps a hostile
   element count from allocating an array the bytes cannot fill. *)
let min_width = function
  | Dtype.U8 -> 1
  | Dtype.String -> 4
  | Dtype.F32 | Dtype.F64 | Dtype.I32 | Dtype.I64 | Dtype.Bool -> 8

let get_tensor r =
  let dname = get_string r in
  let dtype =
    try Dtype.of_string dname
    with Invalid_argument _ -> fail "unknown dtype %S" dname
  in
  let rank = get_u32 r in
  if rank > max_rank then fail "bad tensor rank %d" rank;
  (* The product is checked as it grows, so dimensions whose product
     wraps cannot pose as a small element count. *)
  let numel = ref 1 in
  let shape =
    Array.init rank (fun _ ->
        let d = get_i64 r in
        if d < 0 then fail "negative dimension %d" d;
        if d > 0 && !numel > max_int / d then fail "shape overflows";
        numel := !numel * d;
        d)
  in
  let n = get_u32 r in
  if n <> !numel then fail "element count %d does not match shape" n;
  need r (n * min_width dtype) "tensor data";
  match dtype with
  | Dtype.F32 | Dtype.F64 ->
      Tensor.of_float_array ~dtype shape (Array.init n (fun _ -> get_f64 r))
  | Dtype.I32 | Dtype.I64 ->
      Tensor.of_int_array ~dtype shape (Array.init n (fun _ -> get_i64 r))
  | Dtype.U8 ->
      Tensor.of_bytes shape (Bytes.of_string (get_bytes r n "tensor data"))
  | Dtype.Bool ->
      Tensor.of_bool_array shape (Array.init n (fun _ -> get_i64 r <> 0))
  | Dtype.String ->
      Tensor.of_string_array shape (Array.init n (fun _ -> get_string r))

let put_named b entries =
  put_list b
    (fun b (name, t) ->
      put_string b name;
      put_tensor b t)
    entries

let get_named r =
  get_list r (fun r ->
      let name = get_string r in
      (name, get_tensor r))

(* Integrity and files ------------------------------------------------ *)

let checksum s =
  let acc = ref 0 in
  String.iteri
    (fun i c -> acc := (!acc + ((i + 1) * Char.code c)) land 0x3FFFFFFF)
    s;
  !acc

let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
