(** LogGP cost predictors for every candidate collective algorithm.

    All predictors are pure functions of the active network parameters
    (see {!Simnet.Netmodel.params_for_group} for hierarchy awareness), the
    communicator size and the payload, so every rank of a communicator
    computes identical predictions — the property that lets the selection
    engine run without any extra communication (the zero-overhead
    requirement of the paper's Sec. III).

    Conventions: [p] is the communicator size; [bytes] is the payload size
    the MPI call names (full vector for bcast/allreduce, one block for
    allgather, one pairwise block for alltoall); [elems]/[op_cost] feed the
    reduction-compute term of allreduce. *)

(** [dims_create ~nodes ~ndims] is the balanced factorization of
    [nodes >= 1] over [ndims >= 1] dimensions, largest first (greedy:
    prime factors, largest first, each to the smallest dimension).
    [Mpisim.Cart.dims_create] is this function behind an argument check. *)
val dims_create : nodes:int -> ndims:int -> int array

(** [grid_dims p] is the near-square [(rows, cols)] 2D factorization of
    [p] (rows >= cols), by {!dims_create}, so the hypergrid cost predictor
    and its runtime body agree. *)
val grid_dims : int -> int * int

(** The [?hier] parameter on the predictors below is the topology profile
    of the communicator's group (see {!Simnet.Netmodel.hier_for_group}).
    Hierarchical algorithm variants predict [infinity] without one — on a
    flat fabric they are never auto-selected, keeping pre-topology
    behavior bit-identical — and otherwise split their phases between
    [h_intra] and [h_inter] instead of using the single pessimistic
    spanning tier. *)

val bcast :
  ?hier:Simnet.Netmodel.hier_profile ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  Algo.bcast ->
  float

val allreduce :
  ?hier:Simnet.Netmodel.hier_profile ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  elems:int ->
  op_cost:float ->
  Algo.allreduce ->
  float

(** [bytes] is one rank's block; every rank receives [(p-1) * bytes]. *)
val allgather : Simnet.Netmodel.params -> p:int -> bytes:int -> Algo.allgather -> float

(** [max_bytes] is the largest rank's block and [total_bytes] the whole
    gathered vector; both follow from the counts, which every rank
    shares. *)
val allgatherv :
  Simnet.Netmodel.params -> p:int -> max_bytes:int -> total_bytes:int -> Algo.allgatherv -> float

(** [bytes] is one (source, destination) block. *)
val alltoall :
  ?hier:Simnet.Netmodel.hier_profile ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  Algo.alltoall ->
  float
