(* Restartable label propagation: Lp_common's deterministic sweep run
   per virtual shard on the Ckpt sharded driver, one sweep per round,
   with ghost labels pulled shard to shard through one routed exchange
   per round.  The label arrays are the registered state; the ghost
   request lists are derived and rebuilt on every attempt. *)

module G = Graphgen.Distgraph
module K = Kamping.Comm
module V = Ds.Vec

let ids_codec = Serde.Codec.(array int)

(* The remote vertices a shard's sweep reads, by owner shard, each list
   ascending. *)
let needed (g : G.t) =
  let wanted = Hashtbl.create 64 in
  for i = 0 to g.G.local_n - 1 do
    G.iter_neighbors g i (fun u -> if not (G.is_local g u) then Hashtbl.replace wanted u ())
  done;
  Gexchange.buckets (fun push -> Hashtbl.iter (fun u () -> push (G.owner g u) u) wanted)
  |> List.map (fun (o, ids) ->
         let ids = V.to_array ids in
         Array.sort compare ids;
         (o, ids))

let run ?policy ?failure_rate ?max_attempts ?on_complete comm ~family ~n_shards ~global_n
    ~avg_degree ~seed ~iterations ~max_cluster_size =
  let graph = Graphgen.Generators.shard_slices family ~n_shards ~global_n ~avg_degree ~seed in
  Ckpt.run_sharded ?policy ?failure_rate ?max_attempts ?on_complete ~name:"lp"
    Serde.Codec.(array int)
    ~n_shards comm
    ~init:(fun s -> Lp_common.init_labels (graph s))
    (fun ctx shards ->
      let raw = K.raw (Ckpt.comm ctx) in
      let needs = List.map (fun (s, _) -> (s, needed (graph s))) shards in
      (* who needs which of my vertices: the request lists cross ranks
         once per attempt *)
      let requests =
        Ckpt.route ctx ids_codec
          (List.concat_map (fun (s, need) -> List.map (fun (o, ids) -> (s, o, ids)) need) needs)
      in
      let ghosts = Hashtbl.create 64 in
      fun ~round ->
        round < iterations
        && begin
             let fills =
               Ckpt.route ctx ids_codec
                 (List.concat_map
                    (fun (s, labels) ->
                      let first = (graph s).G.first_vertex in
                      List.map
                        (fun (requester, ids) ->
                          (s, requester, Array.map (fun u -> labels.(u - first)) ids))
                        (requests s))
                    shards)
             in
             List.iter
               (fun (s, labels) ->
                 let need = List.assoc s needs in
                 List.iter
                   (fun (o, values) ->
                     match List.assoc_opt o need with
                     | Some ids -> Array.iteri (fun i u -> Hashtbl.replace ghosts u values.(i)) ids
                     | None -> Mpisim.Errors.usage "lp_resilient: unexpected ghost fill")
                   (fills s);
                 let ghost_label u =
                   match Hashtbl.find_opt ghosts u with
                   | Some l -> l
                   | None -> Mpisim.Errors.usage "lp_resilient: vertex %d is not a known ghost" u
                 in
                 ignore (Lp_common.sweep raw (graph s) labels ~ghost_label ~max_cluster_size))
               shards;
             true
           end)
