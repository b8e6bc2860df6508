(* Domain-safe free lists of tensor backing buffers, keyed by exact
   element count (Tensor.create requires buffer_length = numel, so bins
   never need size-class rounding beyond the exact length).

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
let pooled_bytes = ref 0
let hits = ref 0
let misses = ref 0
let evictions = ref 0

(* Arrays below this many elements are cheaper to allocate than to
   funnel through a mutex; they bypass the pool (and its stats). *)
let min_pool_elems = 1024
let bytes_per_elem = 8

let env = Env.int ~min:0 "OCTF_BUFFER_POOL_MB"

let limit_bytes = ref (Option.value (Env.get env) ~default:256 * 1024 * 1024)

let set_limit_mb mb =
  Mutex.lock mutex;
  limit_bytes := max 0 mb * 1024 * 1024;
  Mutex.unlock mutex

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Allocate a float buffer of exactly [n] elements, recycling a pooled
   one when available.  [zero] controls whether a recycled buffer is
   cleared; callers that overwrite every element pass ~zero:false. *)
let alloc_float ?(zero = true) n =
  if n < min_pool_elems then Array.make n 0.0
  else
    let recycled =
      with_lock (fun () ->
          match Hashtbl.find_opt float_bins n with
          | Some (buf :: rest) ->
              (if rest = [] then Hashtbl.remove float_bins n
               else Hashtbl.replace float_bins n rest);
              pooled_bytes := !pooled_bytes - (n * bytes_per_elem);
              incr hits;
              Some buf
          | Some [] | None ->
              incr misses;
              None)
    in
    match recycled with
    | Some buf ->
        if zero then Array.fill buf 0 n 0.0;
        buf
    | None -> Array.make n 0.0

(* Return a buffer to the pool.  The caller asserts nothing else can
   read or write it.  Over-budget releases are dropped (eviction). *)
let release_float buf =
  let n = Array.length buf in
  if n >= min_pool_elems then
    with_lock (fun () ->
        let sz = n * bytes_per_elem in
        if !pooled_bytes + sz <= !limit_bytes then begin
          let bin = Option.value ~default:[] (Hashtbl.find_opt float_bins n) in
          Hashtbl.replace float_bins n (buf :: bin);
          pooled_bytes := !pooled_bytes + sz
        end
        else incr evictions)

let stats () =
  with_lock (fun () ->
      {
        hits = !hits;
        misses = !misses;
        evictions = !evictions;
        pooled_bytes = !pooled_bytes;
      })

let clear () =
  with_lock (fun () ->
      Hashtbl.reset float_bins;
      pooled_bytes := 0;
      hits := 0;
      misses := 0;
      evictions := 0)
