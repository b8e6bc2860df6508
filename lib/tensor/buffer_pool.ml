(* Domain-safe free lists of tensor backing buffers (float arrays and
   uint8 code bytes, in separate bins under one byte bound), keyed by
   exact element count (Tensor.create requires buffer_length = numel,
   so bins never need size-class rounding beyond the exact length).

   The executor returns a buffer here only when its static lifetime
   analysis proves no live reference remains (see Mem_plan in lib/core);
   kernels additionally release private scratch (im2col columns) that
   never escapes.  Taking from the pool is always
   safe — soundness lives entirely on the release side. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  pooled_bytes : int;
}

let mutex = Mutex.create ()
let float_bins : (int, float array list) Hashtbl.t = Hashtbl.create 64
let byte_bins : (int, Bytes.t list) Hashtbl.t = Hashtbl.create 16
let pooled_bytes = ref 0
let hits = ref 0
let misses = ref 0
let evictions = ref 0

(* Buffers below this many elements are cheaper to allocate than to
   funnel through a mutex; they bypass the pool (and its stats). *)
let min_pool_elems = 1024

let env = Env.int ~min:0 "OCTF_BUFFER_POOL_MB"

let limit_bytes = ref (Option.value (Env.get env) ~default:256 * 1024 * 1024)

let set_limit_mb mb =
  Mutex.lock mutex;
  limit_bytes := max 0 mb * 1024 * 1024;
  Mutex.unlock mutex

(* A pooled buffer of exactly [n] elements of [size] bytes from [bins],
   or [None]. The critical sections below cannot raise, so they lock and
   unlock without a [Fun.protect] closure. *)
let take bins n ~size =
  Mutex.lock mutex;
  let found =
    match Hashtbl.find bins n with
    | buf :: rest ->
        (if rest = [] then Hashtbl.remove bins n
         else Hashtbl.replace bins n rest);
        pooled_bytes := !pooled_bytes - (n * size);
        incr hits;
        Some buf
    | [] | (exception Not_found) ->
        incr misses;
        None
  in
  Mutex.unlock mutex;
  found

(* Over-budget releases are dropped (eviction). *)
let give bins n buf ~size =
  Mutex.lock mutex;
  let sz = n * size in
  if !pooled_bytes + sz <= !limit_bytes then begin
    let bin = match Hashtbl.find bins n with l -> l | exception Not_found -> [] in
    Hashtbl.replace bins n (buf :: bin);
    pooled_bytes := !pooled_bytes + sz
  end
  else incr evictions;
  Mutex.unlock mutex

(* Allocate a float buffer of exactly [n] elements, recycling a pooled
   one when available.  [zero] controls whether a recycled buffer is
   cleared; callers that overwrite every element pass ~zero:false. *)
let alloc_float ?(zero = true) n =
  if n < min_pool_elems then Array.make n 0.0
  else
    match take float_bins n ~size:8 with
    | Some buf ->
        if zero then Array.fill buf 0 n 0.0;
        buf
    | None -> Array.make n 0.0

(* Return a buffer to the pool.  The caller asserts nothing else can
   read or write it. *)
let release_float buf =
  let n = Array.length buf in
  if n >= min_pool_elems then give float_bins n buf ~size:8

(* Byte buffers (uint8 codes) share the bound; their contents are
   unspecified, as [Bytes.create]'s are. *)
let alloc_bytes n =
  if n < min_pool_elems then Bytes.create n
  else
    match take byte_bins n ~size:1 with
    | Some buf -> buf
    | None -> Bytes.create n

let release_bytes buf =
  let n = Bytes.length buf in
  if n >= min_pool_elems then give byte_bins n buf ~size:1

let stats () =
  Mutex.lock mutex;
  let s =
    {
      hits = !hits;
      misses = !misses;
      evictions = !evictions;
      pooled_bytes = !pooled_bytes;
    }
  in
  Mutex.unlock mutex;
  s

let clear () =
  Mutex.lock mutex;
  Hashtbl.reset float_bins;
  Hashtbl.reset byte_bins;
  pooled_bytes := 0;
  hits := 0;
  misses := 0;
  evictions := 0;
  Mutex.unlock mutex
