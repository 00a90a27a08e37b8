(** Distributed PageRank over block-distributed CSR graphs.

    Push-style power iteration: each vertex sends
    [alpha * pr(u) / deg(u)] along its out-edges through a {!Gexchange}
    variant; dangling mass is folded with the reproducible-reduction
    plugin (fixed binary tree over the global vertex indices), and
    contributions are applied in ascending source-vertex order — so the
    result is {e bitwise identical} for every rank count, every exchange
    variant, and every schedule, and equals the host-side {!reference}
    bit for bit. *)

(** The scalar kernels, shared with the {!reference} so it performs the
    exact same operations in the same order. *)

val base_score : alpha:float -> n:int -> dangling:float -> float

(** {1 Block step kernels}

    One power iteration on one block of the vertex range — a rank's
    slice in {!run}, a virtual shard's slice in {!Pagerank_resilient} —
    so both variants run the same per-block code and differ only in
    how the dangling mass is folded and the contributions travel. *)

(** [initial_scores g] is the uniform start vector of [g]'s block. *)
val initial_scores : Graphgen.Distgraph.t -> float array

(** [dangling_weights ~alpha g pr] is each local vertex's dangling
    contribution ([0.] for vertices with out-edges), in local order. *)
val dangling_weights : alpha:float -> Graphgen.Distgraph.t -> float array -> float array

(** [contributions ~alpha g pr] buckets the push contributions
    [(target, weight)] by the block owning the target; each bucket is in
    ascending source-vertex order. *)
val contributions :
  alpha:float -> Graphgen.Distgraph.t -> float array -> (int * (int * float) Ds.Vec.t) list

(** [next_scores ~base g payloads] starts every local vertex at [base]
    and adds the received contributions in list order.  Passing the
    payloads in ascending source-block order makes the additions follow
    the global source order — the {!reference}'s order. *)
val next_scores :
  base:float -> Graphgen.Distgraph.t -> (int * float) Ds.Vec.t list -> float array

(** [run ?variant kc graph ~alpha ~iters] returns this rank's block of
    the score vector after [iters] power iterations (damping [alpha],
    uniform teleport).  Collective; [graph.comm_size] must equal the
    communicator size. *)
val run :
  ?variant:Gexchange.variant ->
  Kamping.Comm.t ->
  Graphgen.Distgraph.t ->
  alpha:float ->
  iters:int ->
  float array

(** [reference family ~global_n ~avg_degree ~seed ~alpha ~iters] is the
    sequential host-side oracle: the full score vector, computed without
    any communicator, bitwise equal to the concatenated {!run} blocks. *)
val reference :
  Graphgen.Generators.family ->
  global_n:int ->
  avg_degree:int ->
  seed:int ->
  alpha:float ->
  iters:int ->
  float array
