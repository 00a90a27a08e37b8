(* Checkpointed PageRank: Pagerank's block kernels run per virtual shard
   on the Ckpt sharded driver.  The dangling mass folds over the global
   vertex indices and contributions apply in ascending source-shard
   order, so recovery is bit-identical to the failure-free run — and to
   Pagerank.run and Pagerank.reference. *)

module K = Kamping.Comm
module G = Graphgen.Distgraph

type shard_state = { mutable pr : float array }

let state_codec =
  Serde.Codec.(conv ~name:"pagerank_shard" (fun s -> s.pr) (fun pr -> { pr }) (array float))

let dang_codec = Serde.Codec.(list (pair int (array float)))
let contrib_codec = Serde.Codec.(vec (pair int float))

let run ?policy comm ~family ~n_shards ~global_n ~avg_degree ~seed
    ~alpha ~iters =
  let graph = Graphgen.Generators.shard_slices family ~n_shards ~global_n ~avg_degree ~seed in
  Ckpt.run_sharded ?policy ~name:"pagerank" state_codec ~n_shards comm
    ~init:(fun s -> { pr = Pagerank.initial_scores (graph s) })
    (fun ctx shards ->
      let kc = Ckpt.comm ctx in
      let shards = List.map (fun (s, st) -> (s, graph s, st)) shards in
      fun ~round ->
        round < iters
        && begin
             (* dangling mass: everyone assembles the full per-vertex
                vector and folds the reproducible tree over the global
                indices — the additions Pagerank.run's plugin reduce
                performs *)
             let all =
               K.allgather_serialized kc dang_codec
                 (List.map (fun (s, g, st) -> (s, Pagerank.dangling_weights ~alpha g st.pr)) shards)
             in
             let full = Array.make global_n 0.0 in
             Array.iter
               (List.iter (fun (s, w) ->
                    let first, _ = G.block_range ~global_n ~comm_size:n_shards s in
                    Array.blit w 0 full first (Array.length w)))
               all;
             let dangling =
               Kamping_plugins.Reproducible_reduce.local_tree_reduce ( +. )
                 (fun u -> full.(u))
                 0 global_n
             in
             let base = Pagerank.base_score ~alpha ~n:global_n ~dangling in
             let inbox =
               Ckpt.route ctx contrib_codec
                 (List.concat_map
                    (fun (s, g, st) ->
                      List.map (fun (ds, v) -> (s, ds, v)) (Pagerank.contributions ~alpha g st.pr))
                    shards)
             in
             List.iter
               (fun (s, g, st) -> st.pr <- Pagerank.next_scores ~base g (List.map snd (inbox s)))
               shards;
             true
           end)
  |> List.map (fun (s, st) -> (s, st.pr))
