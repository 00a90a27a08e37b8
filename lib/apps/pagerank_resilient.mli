(** Restartable PageRank over checkpointed virtual shards.

    Every shard behaves exactly like one rank of a plain
    [n_shards]-rank {!Pagerank.run}: per-shard graph slices are
    regenerated from the (rank-count independent) generators, dangling
    mass is folded over the global vertex indices with the reproducible
    tree, and contributions apply in ascending source-vertex order — so
    survivors adopting orphaned shards reproduce the failure-free (and
    the non-resilient, and the sequential-reference) scores bit for
    bit. *)

(** [run ?policy comm ~family ~n_shards ~global_n ~avg_degree ~seed
    ~alpha ~iters] returns the surviving rank's [(shard, scores)] blocks
    after [iters] iterations. *)
val run :
  ?policy:Ckpt.Schedule.policy ->
  Kamping.Comm.t ->
  family:Graphgen.Generators.family ->
  n_shards:int ->
  global_n:int ->
  avg_degree:int ->
  seed:int ->
  alpha:float ->
  iters:int ->
  (int * float array) list
