(* Checkpointed CG on the row-blocked grid: Cg_stencil.iterate run over
   virtual shards on the Ckpt sharded driver.  The registered state is a
   shard's x, r and p; halo rows travel between owner ranks every
   iteration, and the dots fold per-shard partials over the shard index,
   so the iterates equal Cg_stencil.solve ~dims:[|n_shards; 1|] bit for
   bit — with or without failures. *)

module K = Kamping.Comm
module G = Graphgen.Distgraph
module C = Cg_stencil

let state_codec =
  Serde.Codec.(
    conv ~name:"cg_shard"
      (fun (b : C.block) -> (b.x, b.r, b.p_))
      (fun (x, r, p_) -> { C.x; r; p_; q = Array.make (Array.length x) 0.0 })
      (triple (array float) (array float) (array float)))

let row_codec = Serde.Codec.(array float)
let dot_codec = Serde.Codec.(list (pair int float))

let run ?policy comm ~n_shards ~nx ~ny ~iters ~seed =
  if nx < n_shards then
    Mpisim.Errors.usage "Cg_resilient: grid rows %d smaller than %d shards" nx n_shards;
  let rows s = G.block_range ~global_n:nx ~comm_size:n_shards s in
  (* r.r is not registered: every attempt recomputes it from the
     restored r with the same fold, so it carries the same bits *)
  let rr = ref nan in
  let shards =
    Ckpt.run_sharded ?policy ~name:"cg" state_codec ~n_shards comm
      ~init:(fun s ->
        let gi0, lx = rows s in
        C.start_block
          (Array.init (lx * ny) (fun k -> C.b_at ~seed (gi0 + (k / ny)) (k mod ny) ~ny)))
      (fun ctx shards ->
        let kc = Ckpt.comm ctx in
        let dot f =
          let mine =
            List.map
              (fun (s, b) ->
                let u, v = f b in
                (s, C.partial_dot u v (Array.length u)))
              shards
          in
          let parts = Array.make n_shards 0.0 in
          Array.iter
            (List.iter (fun (s, v) -> parts.(s) <- v))
            (K.allgather_serialized kc dot_codec mine);
          C.combine_partials parts
        in
        (* shard s's top row is s-1's south ghost, its bottom row s+1's
           north ghost; physical-boundary ghosts stay 0 *)
        let apply () =
          let edge (s, (b : C.block)) =
            let _, lx = rows s in
            (if s > 0 then [ (s, s - 1, Array.sub b.p_ 0 ny) ] else [])
            @ if s < n_shards - 1 then [ (s, s + 1, Array.sub b.p_ ((lx - 1) * ny) ny) ] else []
          in
          let inbox = Ckpt.route ctx row_codec (List.concat_map edge shards) in
          List.iter
            (fun (s, (b : C.block)) ->
              let _, lx = rows s in
              let ghost from =
                Option.value (List.assoc_opt from (inbox s)) ~default:(Array.make ny 0.0)
              in
              let side = Array.make lx 0.0 in
              C.apply_block ~lx ~ly:ny ~gn:(ghost (s - 1)) ~gs:(ghost (s + 1)) ~gw:side ~ge:side
                b.p_ b.q)
            shards
        in
        let blocks = List.map snd shards in
        rr := dot (fun b -> (b.r, b.r));
        fun ~round ->
          round < iters
          && begin
               rr := C.iterate ~apply ~dot blocks !rr;
               true
             end)
  in
  (List.map (fun (s, (b : C.block)) -> (s, b.x)) shards, !rr)
