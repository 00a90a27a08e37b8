(** Restartable CG over checkpointed virtual shards.

    The grid is row-blocked over [n_shards] virtual ranks (full width
    per shard), halo rows travel between owner ranks, and both dot
    products fold the per-shard partials with the reproducible tree over
    the shard index — exactly the additions of
    [Cg_stencil.solve ~dims:[|n_shards; 1|]] on [n_shards] ranks, so a
    recovered run is bit-identical to that failure-free one. *)

(** [run ?policy comm ~n_shards ~nx ~ny ~iters ~seed] returns the
    surviving rank's [(shard, x block)] list and the final global
    squared residual. *)
val run :
  ?policy:Ckpt.Schedule.policy ->
  Kamping.Comm.t ->
  n_shards:int ->
  nx:int ->
  ny:int ->
  iters:int ->
  seed:int ->
  (int * float array) list * float
