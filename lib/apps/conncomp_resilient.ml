(* Checkpointed connected components: Conncomp's block kernels run per
   virtual shard on the Ckpt sharded driver.  The label vectors are the
   registered state; the undirected adjacency is derived and rebuilt on
   every attempt with a shard-level reversal-edge exchange. *)

module K = Kamping.Comm

let pair_codec = Serde.Codec.(vec (pair int int))

let run ?policy comm ~family ~n_shards ~global_n ~avg_degree ~seed =
  let graph = Graphgen.Generators.shard_slices family ~n_shards ~global_n ~avg_degree ~seed in
  Ckpt.run_sharded ?policy ~name:"conncomp" Serde.Codec.(array int) ~n_shards comm
    ~init:(fun s -> Conncomp.initial_labels (graph s))
    (fun ctx shards ->
      (* one exchange of every owned shard's bucketed pairs *)
      let exchange make =
        let inbox =
          Ckpt.route ctx pair_codec
            (List.concat_map
               (fun (s, x) -> List.map (fun (ds, v) -> (s, ds, v)) (make s x))
               shards)
        in
        fun s -> List.map snd (inbox s)
      in
      let adj = Hashtbl.create 8 in
      let inbox =
        exchange (fun s _ ->
            let a, reversals = Conncomp.out_edges (graph s) in
            Hashtbl.replace adj s a;
            reversals)
      in
      List.iter
        (fun (s, _) -> Conncomp.add_reversals (graph s) (Hashtbl.find adj s) (inbox s))
        shards;
      fun ~round:_ ->
        let inbox =
          exchange (fun s labels -> Conncomp.label_offers (graph s) (Hashtbl.find adj s) labels)
        in
        let changed =
          List.fold_left
            (fun acc (s, labels) -> Conncomp.absorb_offers (graph s) labels (inbox s) || acc)
            false shards
        in
        K.allreduce_single (Ckpt.comm ctx) Mpisim.Datatype.bool Mpisim.Op.bool_or changed)
