(* Push-style PageRank with a fixed floating-point order: dangling mass
   through the reproducible-reduction tree and contributions applied in
   ascending source-vertex order, so every rank count, exchange variant
   and schedule produces the same bits. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec
module G = Graphgen.Distgraph

let dt_contrib = D.pair D.int D.float

(* The shared scalar kernel: both the distributed run and the host
   reference must perform these exact operations in this exact order. *)
let base_score ~alpha ~n ~dangling =
  ((1.0 -. alpha) /. float_of_int n) +. (dangling /. float_of_int n)

let push_weight ~alpha score deg = alpha *. score /. float_of_int deg
let dangling_weight ~alpha score = alpha *. score

(* --- block step kernels ---------------------------------------------
   A block is one rank's slice here and one virtual shard's slice in
   Pagerank_resilient; both drive the same kernels. *)

let initial_scores (g : G.t) = Array.make g.G.local_n (1.0 /. float_of_int g.G.global_n)

let dangling_weights ~alpha (g : G.t) pr =
  Array.init g.G.local_n (fun i -> if G.degree g i = 0 then dangling_weight ~alpha pr.(i) else 0.0)

let contributions ~alpha (g : G.t) pr =
  Gexchange.buckets (fun push ->
      for i = 0 to g.G.local_n - 1 do
        let deg = G.degree g i in
        if deg > 0 then begin
          let c = push_weight ~alpha pr.(i) deg in
          G.iter_neighbors g i (fun v -> push (G.owner g v) (v, c))
        end
      done)

let next_scores ~base (g : G.t) payloads =
  let first = g.G.first_vertex in
  let next = Array.make g.G.local_n base in
  List.iter (V.iter (fun (v, c) -> next.(v - first) <- next.(v - first) +. c)) payloads;
  next

let run ?(variant = Gexchange.Sparse) kc (graph : G.t) ~alpha ~iters =
  if graph.G.comm_size <> K.size kc then
    Mpisim.Errors.usage "Pagerank.run: graph built for %d ranks, communicator has %d"
      graph.G.comm_size (K.size kc);
  let ex = Gexchange.create kc ~partners:(G.rank_partners graph) in
  let pr = ref (initial_scores graph) in
  for _ = 1 to iters do
    let dangling =
      Kamping_plugins.Reproducible_reduce.reduce kc D.float ( +. )
        ~send_buf:(V.of_array (dangling_weights ~alpha graph !pr))
    in
    let messages = contributions ~alpha graph !pr in
    (* received is sorted by source rank *)
    let received = Gexchange.exchange ex variant dt_contrib ~messages in
    let base = base_score ~alpha ~n:graph.G.global_n ~dangling in
    pr := next_scores ~base graph (List.map snd received)
  done;
  !pr

let reference family ~global_n ~avg_degree ~seed ~alpha ~iters =
  let g = Graphgen.Generators.generate family ~rank:0 ~comm_size:1 ~global_n ~avg_degree ~seed in
  let n = global_n in
  let pr = ref (Array.make n (1.0 /. float_of_int n)) in
  for _ = 1 to iters do
    let cur = !pr in
    let dangling =
      Kamping_plugins.Reproducible_reduce.local_tree_reduce ( +. )
        (fun u -> if G.degree g u = 0 then dangling_weight ~alpha cur.(u) else 0.0)
        0 n
    in
    let next = Array.make n (base_score ~alpha ~n ~dangling) in
    for u = 0 to n - 1 do
      let deg = G.degree g u in
      if deg > 0 then begin
        let c = push_weight ~alpha cur.(u) deg in
        G.iter_neighbors g u (fun v -> next.(v) <- next.(v) +. c)
      end
    done;
    pr := next
  done;
  !pr
