(** Label propagation ghost pull with KaMPIng: static receive counts feed
    the zero-overhead alltoallv path (the 127-LoC role of Sec. IV-B). *)

val run :
  Mpisim.Comm.t -> Graphgen.Distgraph.t -> iterations:int -> max_cluster_size:int -> int array
