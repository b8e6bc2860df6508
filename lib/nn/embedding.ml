module B = Octf.Builder

type t = {
  shards : Var_store.variable list;
  vocab : int;
  dim : int;
}

let create store ?devices ?(init = Init.uniform ~lo:(-0.05) ~hi:0.05 ())
    ~name ~vocab ~dim ~num_shards () =
  if num_shards <= 0 then invalid_arg "Embedding.create: num_shards";
  let shard_device s =
    match devices with
    | None | Some [] -> None
    | Some ds -> Some (List.nth ds (s mod List.length ds))
  in
  let shards =
    List.init num_shards (fun s ->
        (* Mod sharding: shard s stores ceil((vocab - s) / num_shards)
           rows. *)
        let rows = ((vocab - s) + (num_shards - 1)) / num_shards in
        Var_store.get store
          ?device:(shard_device s)
          ~init
          ~name:(Printf.sprintf "%s/shard_%d" name s)
          [| rows; dim |])
  in
  { shards; vocab; dim }

let num_shards t = List.length t.shards

let lookup_single t b ids =
  match t.shards with
  | [ shard ] -> B.gather b shard.Var_store.read ids
  | _ -> invalid_arg "Embedding.lookup_single: more than one shard"

let lookup t b ids =
  match t.shards with
  | [ _ ] -> lookup_single t b ids
  | shards ->
      let n = num_shards t in
      let num_t = B.const b (Octf_tensor.Tensor.scalar_i n) in
      (* Which shard each id lives on, and its offset within the shard. *)
      let shard_ids = B.modulo b ids num_t in
      let local_ids = B.div b ids num_t in
      let per_shard_ids =
        B.dynamic_partition b local_ids shard_ids ~num:n
      in
      (* Original positions of each id, partitioned the same way, to
         stitch results back into input order. *)
      let positions = B.range_like b ids in
      let per_shard_pos = B.dynamic_partition b positions shard_ids ~num:n in
      let gathered =
        List.map2
          (fun (shard : Var_store.variable) local ->
            (* Compiled, this runs at the shard ({!Octf.Graph_optimizer}'s
               gather at the variable): only the gathered rows travel. *)
            B.gather b shard.Var_store.read local)
          shards per_shard_ids
      in
      B.dynamic_stitch b per_shard_pos gathered
