(* Weakly connected components: symmetrize the edge set once, then
   propagate minimum labels to a fixpoint.  All arithmetic is integral
   and min-idempotent, so every variant and rank count agrees. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec
module G = Graphgen.Distgraph

let dt_pair = D.pair D.int D.int

(* --- block step kernels, shared with Conncomp_resilient ------------- *)

let out_edges (g : G.t) =
  let adj = Array.init g.G.local_n (fun _ -> V.create ()) in
  let reversals =
    Gexchange.buckets (fun push ->
        for i = 0 to g.G.local_n - 1 do
          let u = G.global_of_local g i in
          G.iter_neighbors g i (fun v ->
              V.push adj.(i) v;
              push (G.owner g v) (v, u))
        done)
  in
  (adj, reversals)

let add_reversals (g : G.t) adj payloads =
  List.iter (V.iter (fun (v, u) -> V.push adj.(v - g.G.first_vertex) u)) payloads

let initial_labels (g : G.t) = Array.init g.G.local_n (fun i -> g.G.first_vertex + i)

let label_offers (g : G.t) adj labels =
  Gexchange.buckets (fun push ->
      Array.iteri (fun i nbrs -> V.iter (fun v -> push (G.owner g v) (v, labels.(i))) nbrs) adj)

let absorb_offers (g : G.t) labels payloads =
  let changed = ref false in
  List.iter
    (V.iter (fun (v, lbl) ->
         let i = v - g.G.first_vertex in
         if lbl < labels.(i) then begin
           labels.(i) <- lbl;
           changed := true
         end))
    payloads;
  !changed

let run ?(variant = Gexchange.Sparse) kc (graph : G.t) =
  if graph.G.comm_size <> K.size kc then
    Mpisim.Errors.usage "Conncomp.run: graph built for %d ranks, communicator has %d"
      graph.G.comm_size (K.size kc);
  let ex = Gexchange.create kc ~partners:(G.rank_partners graph) in
  let exchange messages = List.map snd (Gexchange.exchange ex variant dt_pair ~messages) in
  let adj, reversals = out_edges graph in
  add_reversals graph adj (exchange reversals);
  let labels = initial_labels graph in
  let any_changed = ref true in
  while !any_changed do
    let changed = absorb_offers graph labels (exchange (label_offers graph adj labels)) in
    any_changed := K.allreduce_single kc D.bool Mpisim.Op.bool_or changed
  done;
  labels

let reference family ~global_n ~avg_degree ~seed =
  let g = Graphgen.Generators.generate family ~rank:0 ~comm_size:1 ~global_n ~avg_degree ~seed in
  let parent = Array.init global_n (fun i -> i) in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  for u = 0 to global_n - 1 do
    G.iter_neighbors g u (fun v -> union u v)
  done;
  Array.init global_n (fun u -> find u)
