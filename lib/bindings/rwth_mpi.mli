(** Style-faithful emulation of RWTH-MPI (Demiralp et al., paper Sec. II).

    Captured design traits: complete standard coverage with overloads at
    several abstraction levels; STL containers for send/receive buffers
    with automatic resizing in {e some} cases; receive counts can only be
    omitted for the in-place variants (the library then gathers them
    internally), otherwise the user exchanges counts manually; direct
    mirroring of the C interface elsewhere. *)

type comm

val wrap : Mpisim.Comm.t -> comm
val rank : comm -> int
val size : comm -> int

(** [allgather comm dt block] resizes the result to fit (the convenient
    overload). *)
val allgather : comm -> 'a Mpisim.Datatype.t -> 'a array -> 'a array

(** [allgatherv_inplace comm dt buf ~my_count ~my_displ] is the only
    overload that computes receive counts internally — it requires the data
    to sit at the right offset already (MPI_IN_PLACE), so the user must
    have exchanged counts to compute the displacement anyway. *)
val allgatherv_inplace : comm -> 'a Mpisim.Datatype.t -> 'a array -> my_count:int -> unit

(** [allgatherv comm dt block ~rcounts] mirrors the C call (counts from the
    user, displacements computed). *)
val allgatherv : comm -> 'a Mpisim.Datatype.t -> 'a array -> rcounts:int array -> 'a array

val alltoall : comm -> 'a Mpisim.Datatype.t -> 'a array -> 'a array

(** [alltoallv] mirrors the C interface completely. *)
val alltoallv :
  comm ->
  'a Mpisim.Datatype.t ->
  sendbuf:'a array ->
  scounts:int array ->
  sdispls:int array ->
  recvbuf:'a array ->
  rcounts:int array ->
  rdispls:int array ->
  unit

val allreduce : comm -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> 'a -> 'a
