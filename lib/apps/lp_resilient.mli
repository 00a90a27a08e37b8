(** Restartable size-constrained label propagation over checkpointed
    virtual shards.

    Like {!Bfs_resilient}, the vertex set is partitioned into [n_shards]
    shards fixed for the computation's lifetime; each physical rank
    sweeps the shards it currently owns and pulls ghost labels shard to
    shard, so the label arrays of a recovered run are bit-identical to a
    failure-free run (and to the plain variant on [n_shards] ranks). *)

(** [run comm ~family ~n_shards ~global_n ~avg_degree ~seed ~iterations
    ~max_cluster_size] returns [(shard, labels of that shard's vertex
    block)] for every shard this rank owns after [iterations] sweeps,
    ascending by shard.  The optional arguments are passed to
    {!Ckpt.run_sharded}. *)
val run :
  ?policy:Ckpt.Schedule.policy ->
  ?failure_rate:float ->
  ?max_attempts:int ->
  ?on_complete:(Ckpt.ctx -> unit) ->
  Kamping.Comm.t ->
  family:Graphgen.Generators.family ->
  n_shards:int ->
  global_n:int ->
  avg_degree:int ->
  seed:int ->
  iterations:int ->
  max_cluster_size:int ->
  (int * int array) list
