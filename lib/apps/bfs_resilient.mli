(** Restartable distributed BFS over checkpointed virtual shards.

    The graph is partitioned into [n_shards] {e shards} — virtual ranks,
    fixed for the computation's lifetime — and each physical rank runs
    the Fig. 9 level loop for the shards it currently owns (see
    {!Ckpt}).  Because the generators are rank-count independent and the
    per-shard partition never changes, the distance arrays a recovered
    run produces are {e bit-identical} to a failure-free run — and to a
    plain BFS over [n_shards] physical ranks. *)

(** [run comm ~family ~n_shards ~global_n ~avg_degree ~seed ~src] returns
    [(shard, distances of that shard's vertex block)] for every shard
    this rank owns when the search completes, ascending by shard.
    Failures detected during the search roll back to the newest
    checkpoint and resume on the shrunken communicator.  The optional
    arguments are passed to {!Ckpt.run_sharded}. *)
val run :
  ?policy:Ckpt.Schedule.policy ->
  ?failure_rate:float ->
  ?max_attempts:int ->
  Kamping.Comm.t ->
  family:Graphgen.Generators.family ->
  n_shards:int ->
  global_n:int ->
  avg_degree:int ->
  seed:int ->
  src:int ->
  (int * int array) list
