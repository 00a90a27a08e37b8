(** Blocking collective operations, implemented on point-to-point messaging
    with the textbook algorithms (Sanders et al., "Sequential and Parallel
    Algorithms and Data Structures"):

    - barrier: dissemination, [ceil(log2 p)] rounds;
    - reduce: binomial tree;
    - allgatherv: ring (linear rounds, optimal volume) or recursive
      doubling (logarithmic rounds, with a fold for non-power-of-two
      sizes), chosen from the counts alone;
    - alltoallv: pairwise exchange;
    - alltoallw-style: the linear fan-out fallback real MPI implementations
      use for [MPI_Alltoallw] — every peer gets a message even for zero
      counts, plus per-peer datatype setup; this is the path MPL's
      variable-size collectives take, and why they scale poorly (Sec. II);
    - scan / exscan: recursive doubling;
    - gather(v) / scatter(v): linear at the root (as in practice for the
      irregular variants).

    {b Tuned collectives.}  [bcast], [allreduce], [allgather],
    [allgatherv] and [alltoall] (and their non-blocking variants) dispatch
    through the {!Coll_algos.Select} engine: each has several interchangeable
    algorithms in {!Coll_impl}, and the selector picks the candidate with
    the lowest {!Coll_algos.Cost} prediction under the communicator's
    LogGP-style parameters (hierarchical fabrics use the intra-node
    parameter set when the whole group shares a node).  Ties keep the
    pre-tuning default, so small-message behavior — and the profiling
    call counts the paper's Sec. VI experiments rely on — is unchanged.
    Per-communicator overrides are available through {!pin_algorithm}.

    The data-movement collectives (broadcast, gather, scatter,
    allgather(v), alltoall(v/w), with their non-blocking and persistent
    variants) take any datatype, so a {!Datatype.serialized} [Bytes]
    window needs no conversion; the reductions take typed datatypes.

    Every call counts once in the profiling layer under its MPI name; the
    tuned collectives additionally count the annotated choice (e.g.
    ["MPI_Allreduce[rabenseifner]"]) in the separate algorithm category.
    Reduction trees reassociate user operations (the usual reason floating
    point results depend on [p] — see the reproducible-reduce plugin);
    non-commutative operations always take the reduce+bcast allreduce. *)

val barrier : Comm.t -> unit

val bcast : ?pos:int -> ?count:int -> Comm.t -> ('a, 'b) Datatype.gen -> 'b -> root:int -> unit

(** [reduce comm dt op ~sendbuf ~recvbuf ~count ~root] element-wise reduces
    [count] elements.  [recvbuf] is required at the root and ignored
    elsewhere.  [sendbuf] and [recvbuf] may alias (in-place). *)
val reduce :
  ?pos:int ->
  ?recvbuf:'a array ->
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  count:int ->
  root:int ->
  unit

val allreduce :
  ?pos:int ->
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  recvbuf:'a array ->
  count:int ->
  unit

(** [allgather comm dt ~sendbuf ~recvbuf ~count] concatenates each rank's
    [count]-element block into [recvbuf] (size [p*count]) on every rank.
    With [~inplace:true] the caller's block must already sit at
    [recvbuf.(rank*count)] and [sendbuf] is ignored (MPI_IN_PLACE). *)
val allgather :
  ?inplace:bool ->
  ?spos:int ->
  ?rpos:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  recvbuf:'b ->
  count:int ->
  unit

(** [allgatherv comm dt ~sendbuf ~scount ~recvbuf ~rcounts ~rdispls]
    concatenates variable-size blocks. *)
val allgatherv :
  ?inplace:bool ->
  ?spos:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  scount:int ->
  recvbuf:'b ->
  rcounts:int array ->
  rdispls:int array ->
  unit

val gather :
  ?spos:int ->
  ?rpos:int ->
  ?recvbuf:'b ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  count:int ->
  root:int ->
  unit

val gatherv :
  ?spos:int ->
  ?recvbuf:'b ->
  ?rcounts:int array ->
  ?rdispls:int array ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  scount:int ->
  root:int ->
  unit

val scatter :
  ?spos:int ->
  ?rpos:int ->
  ?sendbuf:'b ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  recvbuf:'b ->
  count:int ->
  root:int ->
  unit

val scatterv :
  ?rpos:int ->
  ?sendbuf:'b ->
  ?scounts:int array ->
  ?sdispls:int array ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  recvbuf:'b ->
  rcount:int ->
  root:int ->
  unit

val alltoall :
  Comm.t -> ('a, 'b) Datatype.gen -> sendbuf:'b -> recvbuf:'b -> count:int -> unit

val alltoallv :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  scounts:int array ->
  sdispls:int array ->
  recvbuf:'b ->
  rcounts:int array ->
  rdispls:int array ->
  unit

(** [exclusive_scan counts] is the packed displacement array of [counts]:
    block [i] starts where blocks [0 .. i-1] end. *)
val exclusive_scan : int array -> int array

(** The [MPI_Alltoallw]-equivalent path: same result as {!alltoallv} but
    with linear message fan-out (p-1 messages even for empty pairs) and
    per-peer datatype setup cost. *)
val alltoallw_style :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  scounts:int array ->
  sdispls:int array ->
  recvbuf:'b ->
  rcounts:int array ->
  rdispls:int array ->
  unit

(** [reduce_scatter_block comm dt op ~sendbuf ~recvbuf ~count] element-wise
    reduces [p * count] elements and scatters block [i] (of [count]
    elements) to rank [i]. *)
val reduce_scatter_block :
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  recvbuf:'a array ->
  count:int ->
  unit

(** [scan comm dt op ~sendbuf ~recvbuf ~count] computes the inclusive prefix
    reduction over ranks. *)
val scan :
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  recvbuf:'a array ->
  count:int ->
  unit

(** [exscan comm dt op ~sendbuf ~recvbuf ~count] computes the exclusive
    prefix reduction; rank 0's receive buffer is left untouched (as in
    MPI). *)
val exscan :
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  recvbuf:'a array ->
  count:int ->
  unit

(** [ibarrier comm] starts a non-blocking barrier; progress happens
    asynchronously (a helper fiber models an MPI progress thread).  The
    building block of the NBX sparse all-to-all. *)
val ibarrier : Comm.t -> Request.t

(** [ibcast comm dt buf ~root] is the non-blocking broadcast; the buffer
    must not be touched until the request completes. *)
val ibcast :
  ?pos:int -> ?count:int -> Comm.t -> ('a, 'b) Datatype.gen -> 'b -> root:int -> Request.t

(** [bcast_init comm dt buf ~root] is the persistent broadcast (MPI-4
    §6.13): validation, the collective-ordering check, tag allocation and
    algorithm selection all happen once, and every {!Persist.start} replays
    the chosen algorithm with the same tags (legal because all ranks start
    rounds in the same order and per-pair message order is FIFO).  The
    root's buffer contents are re-read at each start. *)
val bcast_init :
  ?pos:int -> ?count:int -> Comm.t -> ('a, 'b) Datatype.gen -> 'b -> root:int -> Persist.t

(** [iallreduce comm dt op ~sendbuf ~recvbuf ~count] is the non-blocking
    allreduce. *)
val iallreduce :
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  recvbuf:'a array ->
  count:int ->
  Request.t

(** [ialltoallv comm dt ...] is the non-blocking irregular exchange. *)
val ialltoallv :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  scounts:int array ->
  sdispls:int array ->
  recvbuf:'b ->
  rcounts:int array ->
  rdispls:int array ->
  Request.t

(** {1 Algorithm selection}

    Thin wrappers over the world's {!Coll_algos.Select} table, keyed by
    this communicator's id.  Pins must be set identically on every rank
    of the communicator before the collective (they are rank-local hints,
    like MPI info keys). *)

(** [pin_algorithm comm ~coll ~algo] forces collective [coll] (["bcast"],
    ["allreduce"], ["allgather"], ["allgatherv"] or ["alltoall"]) on this
    communicator to algorithm [algo] (see {!Coll_algos.Algo} for the
    names).
    @raise Invalid_argument on an unknown collective or algorithm name. *)
val pin_algorithm : Comm.t -> coll:string -> algo:string -> unit

(** [pin_table_algorithm comm ~coll table] installs a message-size-keyed
    pin: each [(min_bytes, algo)] row applies from [min_bytes] upward (see
    {!Coll_algos.Select.pin_table}).  This is how auto-tuned per-topology
    tables from [Topology.Autotune] are deployed. *)
val pin_table_algorithm : Comm.t -> coll:string -> (int * string) list -> unit

(** [unpin_algorithm comm ~coll] returns [coll] to cost-based selection. *)
val unpin_algorithm : Comm.t -> coll:string -> unit

(** [pinned_algorithm comm ~coll] is the unconditional override in force,
    if any. *)
val pinned_algorithm : Comm.t -> coll:string -> string option

(** [pinned_table_algorithm comm ~coll] is the size-keyed table in force,
    if any. *)
val pinned_table_algorithm : Comm.t -> coll:string -> (int * string) list option

(** {1 Communicator management} *)

(** [dup comm] duplicates the communicator (collective). *)
val dup : Comm.t -> Comm.t

(** [split comm ~color ~key] partitions ranks by [color], ordering each new
    communicator by [(key, rank)].  A negative color returns [None]
    (MPI_UNDEFINED). *)
val split : Comm.t -> color:int -> key:int -> Comm.t option

(** [split_by_node comm] is MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): the
    sub-communicator of ranks sharing the caller's node, ordered by
    [(key, rank)] (default [key = 0]: by parent rank).  On a flat fabric
    every rank gets a singleton communicator. *)
val split_by_node : ?key:int -> Comm.t -> Comm.t
