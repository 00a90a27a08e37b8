(** Restartable connected components over checkpointed virtual shards.

    Min-label propagation is monotone and idempotent, so recovery from
    any checkpoint converges to the same fixpoint: the component-minimum
    labels, bit-identical to {!Conncomp.run} and its reference. *)

(** [run ?policy comm ~family ~n_shards ~global_n ~avg_degree ~seed]
    returns the surviving rank's [(shard, labels)] blocks. *)
val run :
  ?policy:Ckpt.Schedule.policy ->
  Kamping.Comm.t ->
  family:Graphgen.Generators.family ->
  n_shards:int ->
  global_n:int ->
  avg_degree:int ->
  seed:int ->
  (int * int array) list
