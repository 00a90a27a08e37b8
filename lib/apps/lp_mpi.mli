(** Label propagation ghost pull against plain MPI: full count and
    displacement bookkeeping per iteration (the 154-LoC role of
    Sec. IV-B). *)

val run :
  Mpisim.Comm.t -> Graphgen.Distgraph.t -> iterations:int -> max_cluster_size:int -> int array
