(* Restartable BFS: the Fig. 9 level loop (Bfs_common's expand/absorb)
   run per virtual shard on the Ckpt sharded driver, one level per
   round.  Every shard behaves exactly like one rank of a plain
   [n_shards]-rank BFS (the graph generators are rank-count independent),
   so survivors adopting orphaned shards reproduce the reference output
   bit for bit. *)

module V = Ds.Vec
module K = Kamping.Comm

type shard_data = { dist : int array; mutable frontier : int V.t }

let data_codec =
  Serde.Codec.(
    conv ~name:"bfs_shard"
      (fun d -> (d.dist, d.frontier))
      (fun (dist, frontier) -> { dist; frontier })
      (pair (array int) (vec int)))

let ids_codec = Serde.Codec.(vec int)

let run ?policy ?failure_rate ?max_attempts comm ~family ~n_shards ~global_n ~avg_degree ~seed
    ~src =
  let graph = Graphgen.Generators.shard_slices family ~n_shards ~global_n ~avg_degree ~seed in
  Ckpt.run_sharded ?policy ?failure_rate ?max_attempts ~name:"bfs" data_codec ~n_shards comm
    ~init:(fun s ->
      let st = Bfs_common.init (K.raw comm) (graph s) src in
      { dist = st.Bfs_common.dist; frontier = st.Bfs_common.frontier })
    (fun ctx shards ->
      let kc = Ckpt.comm ctx in
      fun ~round ->
        let empty = List.for_all (fun (_, d) -> V.is_empty d.frontier) shards in
        (not (K.allreduce_single kc Mpisim.Datatype.bool Mpisim.Op.bool_and empty))
        && begin
             let levels =
               List.map
                 (fun (s, d) ->
                   let st =
                     {
                       Bfs_common.comm = K.raw kc;
                       graph = graph s;
                       dist = d.dist;
                       frontier = d.frontier;
                       level = round;
                     }
                   in
                   let next_local, remote = Bfs_common.expand st in
                   (s, d, st, next_local, remote))
                 shards
             in
             let inbox =
               Ckpt.route ctx ids_codec
                 (List.concat_map
                    (fun (s, _, _, _, remote) ->
                      Hashtbl.fold (fun ds v acc -> (s, ds, v) :: acc) remote [])
                    levels)
             in
             List.iter
               (fun (s, d, st, next_local, _) ->
                 let received = V.create () in
                 List.iter (fun (_, ids) -> V.append received ids) (inbox s);
                 Bfs_common.absorb st next_local received;
                 d.frontier <- st.Bfs_common.frontier)
               levels;
             true
           end)
  |> List.map (fun (s, d) -> (s, d.dist))
