(** The KaMPIng communicator: named-parameter MPI with computed defaults
    (paper Sec. III).

    Every wrapper follows the same conventions:

    - {b Named parameters.}  OCaml's labelled and optional arguments play
      the role of KaMPIng's named-parameter factories: any subset of
      [?recv_counts], [?recv_displs], [?send_displs], [?recv_buf] may be
      given, in any order; whatever is omitted is {e computed by the
      library}, using extra communication where necessary (e.g. an
      allgather of send counts for {!allgatherv}, Fig. 2/3 of the paper).
      When the caller supplies everything, the wrapper issues {e exactly}
      the single underlying MPI call — the (near) zero-overhead property,
      which the test suite verifies through the profiling interface.
    - {b Results by value.}  The receive buffer is always returned; other
      computed parameters are returned in the {!vresult} record only when
      requested with the corresponding [*_out] flag (out-parameters,
      Sec. III-B).
    - {b Memory control.}  [?recv_buf] recycles a caller-owned
      {!Ds.Vec.t}; [?recv_policy] picks the {!Resize_policy.t}.  Without
      [?recv_buf] a fresh vector is allocated and resized to fit; with it,
      the default policy is [No_resize] (never allocate behind the
      caller's back, Sec. III-C).
    - {b Datatypes.}  OCaml cannot infer a wire datatype from a type
      variable, so each call takes the datatype as its second positional
      argument (built once via {!Type_traits}); counts are still inferred
      from vector lengths, as in the paper. *)

type t

(** [wrap raw] lifts a plain communicator; [raw t] unwraps it (both ways of
    the gradual-migration story, Sec. III-F). *)
val wrap : Mpisim.Comm.t -> t

val raw : t -> Mpisim.Comm.t

(** [rank t] and [size t] mirror [Comm_rank]/[Comm_size]. *)
val rank : t -> int

val size : t -> int

(** [is_root ?root t] is [rank t = root] (default root 0). *)
val is_root : ?root:int -> t -> bool

(** [now t] is the simulated time; [compute t s] charges local work. *)
val now : t -> float

val compute : t -> float -> unit

(** {1 Tracing}

    See {!Trace} and [Mpisim.Mpi.run ?trace]: when the surrounding run is
    traced, every MPI call this communicator issues is recorded as a
    timeline span. *)

(** [tracing t] is true when the surrounding run records an event trace. *)
val tracing : t -> bool

(** [with_region t name f] wraps [f ()] in a user-labelled timeline region
    (category ["user"]) on traced runs; on untraced runs it just calls
    [f ()].  Regions nest and show up in the Chrome-trace export and the
    per-call-site wait attribution. *)
val with_region : t -> string -> (unit -> 'a) -> 'a

(** Result record of the variable collectives.  Fields other than
    [recv_buf] are [Some] only when requested via the [*_out] flags. *)
type 'a vresult = {
  recv_buf : 'a Ds.Vec.t;
  recv_counts : int array option;
  recv_displs : int array option;
  send_displs : int array option;
}

(** {1 Collectives}

    [bcast], [allreduce], [allgather], [allgatherv] and [alltoall] are
    tuned: the cheapest algorithm under the communicator's network
    parameters is selected per call (see {!Mpisim.Collectives} and
    [Coll_algos]).
    [pin_algorithm t ~coll ~algo] overrides the choice for this
    communicator — set it identically on every rank; [unpin_algorithm]
    restores cost-based selection and [pinned_algorithm] reads the
    override in force. *)

val pin_algorithm : t -> coll:string -> algo:string -> unit
val unpin_algorithm : t -> coll:string -> unit
val pinned_algorithm : t -> coll:string -> string option

(** [pin_table_algorithm t ~coll table] installs a message-size-keyed pin:
    each [(min_bytes, algo)] row applies from [min_bytes] upward (the
    representation the [Topology.Autotune] sweep generates — see
    {!Coll_algos.Select.pin_table}).  [pinned_table_algorithm] reads the
    table in force. *)
val pin_table_algorithm : t -> coll:string -> (int * string) list -> unit

val pinned_table_algorithm : t -> coll:string -> (int * string) list option
val barrier : t -> unit

(** [bcast t dt ~send_recv_buf] broadcasts the root's vector into every
    rank's buffer (an in-out parameter).  The buffer length is the count
    and must agree on all ranks (the [Heavy] assertion level verifies
    this); for dynamically sized payloads use {!bcast_serialized}. *)
val bcast : ?root:int -> t -> 'a Mpisim.Datatype.t -> send_recv_buf:'a Ds.Vec.t -> unit

(** [bcast_single t dt v] broadcasts one value by value. *)
val bcast_single : ?root:int -> t -> 'a Mpisim.Datatype.t -> 'a -> 'a

(** [gatherv t dt ~send_buf] gathers variable-size blocks; receive counts
    are gathered internally when not supplied. *)
val gatherv :
  ?root:int ->
  ?recv_counts:int array ->
  ?recv_displs:int array ->
  ?recv_buf:'a Ds.Vec.t ->
  ?recv_policy:Resize_policy.t ->
  ?recv_counts_out:bool ->
  ?recv_displs_out:bool ->
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  'a vresult

(** [allgather t dt ~send_buf] concatenates equal-size blocks on every
    rank. *)
val allgather :
  ?recv_buf:'a Ds.Vec.t ->
  ?recv_policy:Resize_policy.t ->
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  'a Ds.Vec.t

(** [allgather_inplace t dt ~send_recv_buf] is the simplified MPI_IN_PLACE
    form (Sec. III-G): the buffer holds one slot per rank, with this rank's
    contribution at index [rank t]. *)
val allgather_inplace : t -> 'a Mpisim.Datatype.t -> send_recv_buf:'a Ds.Vec.t -> unit

(** [allgatherv t dt ~send_buf] — the paper's running example (Fig. 1-3).
    The one-argument form computes counts (allgather) and displacements
    (exclusive prefix sum) internally and returns the global vector by
    value. *)
val allgatherv :
  ?recv_counts:int array ->
  ?recv_displs:int array ->
  ?recv_buf:'a Ds.Vec.t ->
  ?recv_policy:Resize_policy.t ->
  ?recv_counts_out:bool ->
  ?recv_displs_out:bool ->
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  'a vresult

(** [scatter t dt ?send_buf] distributes the root's vector in equal blocks;
    the block size is broadcast when [?recv_count] is absent. *)
val scatter :
  ?root:int ->
  ?send_buf:'a Ds.Vec.t ->
  ?recv_count:int ->
  ?recv_buf:'a Ds.Vec.t ->
  ?recv_policy:Resize_policy.t ->
  t ->
  'a Mpisim.Datatype.t ->
  'a Ds.Vec.t

(** [scatterv t dt ?send_buf ?send_counts] distributes variable blocks; each
    rank's count is scattered internally when [?recv_count] is absent. *)
val scatterv :
  ?root:int ->
  ?send_buf:'a Ds.Vec.t ->
  ?send_counts:int array ->
  ?send_displs:int array ->
  ?recv_count:int ->
  ?recv_buf:'a Ds.Vec.t ->
  ?recv_policy:Resize_policy.t ->
  t ->
  'a Mpisim.Datatype.t ->
  'a Ds.Vec.t

(** [alltoall t dt ~send_buf] exchanges [length send_buf / size t] elements
    with every rank. *)
val alltoall :
  ?recv_buf:'a Ds.Vec.t ->
  ?recv_policy:Resize_policy.t ->
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  'a Ds.Vec.t

(** [alltoallv t dt ~send_buf ~send_counts] — receive counts are exchanged
    with an internal [MPI_Alltoall] when missing; displacements by exclusive
    prefix sums. *)
val alltoallv :
  ?send_displs:int array ->
  ?recv_counts:int array ->
  ?recv_displs:int array ->
  ?recv_buf:'a Ds.Vec.t ->
  ?recv_policy:Resize_policy.t ->
  ?recv_counts_out:bool ->
  ?recv_displs_out:bool ->
  ?send_displs_out:bool ->
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  send_counts:int array ->
  'a vresult

(** [alltoallv_flat t dt flat] runs {!alltoallv} on a {!Flatten.flat}
    bundle (the [with_flattened] pattern from the BFS example). *)
val alltoallv_flat : t -> 'a Mpisim.Datatype.t -> 'a Flatten.flat -> 'a vresult

(** [reduce t dt op ~send_buf] element-wise reduces; the root receives the
    result vector, others an empty vector. *)
val reduce :
  ?root:int -> t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> send_buf:'a Ds.Vec.t -> 'a Ds.Vec.t

val allreduce :
  t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> send_buf:'a Ds.Vec.t -> 'a Ds.Vec.t

(** [allreduce_single t dt op v] reduces one value per rank — the idiom of
    the BFS termination check ([allreduce_single (frontier.empty) lAND]). *)
val allreduce_single : t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> 'a -> 'a

(** [reduce_single t dt op v] reduces one value per rank to the root
    ([Some result] there, [None] elsewhere). *)
val reduce_single : ?root:int -> t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> 'a -> 'a option

(** [gather_single t dt v] collects one value per rank on the root (an
    empty vector elsewhere). *)
val gather_single : ?root:int -> t -> 'a Mpisim.Datatype.t -> 'a -> 'a Ds.Vec.t

val scan : t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> send_buf:'a Ds.Vec.t -> 'a Ds.Vec.t
val scan_single : t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> 'a -> 'a

(** [exscan_single t dt op ~init v]: rank 0 receives [init] (MPI leaves it
    undefined; KaMPIng makes it explicit). *)
val exscan : t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> send_buf:'a Ds.Vec.t -> 'a Ds.Vec.t

val exscan_single : init:'a -> t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> 'a -> 'a

(** {1 Non-blocking collectives}

    Like the point-to-point wrappers, these own their buffers through the
    {!Nb_result.t} until completion. *)

(** [ibcast t dt ~send_recv_buf] starts a broadcast; the buffer is owned by
    the result and handed back once the operation completed. *)
val ibcast :
  ?root:int -> t -> 'a Mpisim.Datatype.t -> send_recv_buf:'a Ds.Vec.t -> 'a Ds.Vec.t Nb_result.t

(** [iallreduce t dt op ~send_buf] starts an element-wise allreduce. *)
val iallreduce :
  t -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> send_buf:'a Ds.Vec.t -> 'a Ds.Vec.t Nb_result.t

(** [ialltoallv t dt ~send_buf ~send_counts ~recv_counts] starts an
    irregular exchange.  Receive counts must be supplied: computing them
    would require communication, which a non-blocking call cannot hide. *)
val ialltoallv :
  ?send_displs:int array ->
  ?recv_displs:int array ->
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  send_counts:int array ->
  recv_counts:int array ->
  'a Ds.Vec.t Nb_result.t

(** {1 Point-to-point}

    Every [?tag] defaults to [0]. *)

val send : ?tag:int -> t -> 'a Mpisim.Datatype.t -> send_buf:'a Ds.Vec.t -> dst:int -> unit

(** [recv t dt ~src] without [?count] first probes for the matching message
    so the result vector is sized exactly — no receive-size guessing. *)
val recv :
  ?tag:int ->
  ?count:int ->
  ?recv_buf:'a Ds.Vec.t ->
  ?recv_policy:Resize_policy.t ->
  t ->
  'a Mpisim.Datatype.t ->
  src:int ->
  'a Ds.Vec.t

(** [isend t dt ~send_buf ~dst] {e moves} the buffer into the non-blocking
    result, which returns it when the send completed (Fig. 6: no access to
    an in-flight buffer). *)
val isend :
  ?tag:int -> t -> 'a Mpisim.Datatype.t -> send_buf:'a Ds.Vec.t -> dst:int -> 'a Ds.Vec.t Nb_result.t

(** [issend] is {!isend} with synchronous-send completion semantics. *)
val issend :
  ?tag:int -> t -> 'a Mpisim.Datatype.t -> send_buf:'a Ds.Vec.t -> dst:int -> 'a Ds.Vec.t Nb_result.t

(** [irecv ~count t dt ~src] posts a receive of up to [count] elements; the
    received vector is only reachable through the non-blocking result. *)
val irecv :
  ?tag:int -> count:int -> t -> 'a Mpisim.Datatype.t -> src:int -> 'a Ds.Vec.t Nb_result.t

(** [iprobe t ~src ~tag] checks for a matching message. *)
val iprobe : ?tag:int -> t -> src:int -> Mpisim.Request.status option

(** {1 Persistent & partitioned operations (MPI-4)}

    The [*_init] wrappers validate once and return an {e inactive}
    {!Mpisim.Persist.t}; {!start} (or {!Request_pool.start_all}) arms a
    round, [Persist.wait]/[Persist.test] complete it, and
    {!free_request} releases the handle.  Receive-side wrappers allocate
    the standing buffer once and return it alongside the handle — each
    round's status carries the actual element count. *)

module Persist = Mpisim.Persist

(** [send_init t dt ~send_buf ~dst] is the persistent standard-mode send.
    The buffer's {e current backing array and length} are captured at init
    (persistent envelopes are fixed); its contents are re-read at each
    start.  Do not grow [send_buf] afterwards. *)
val send_init :
  ?tag:int -> t -> 'a Mpisim.Datatype.t -> send_buf:'a Ds.Vec.t -> dst:int -> Mpisim.Persist.t

(** [ssend_init] is {!send_init} with synchronous-send completion (each
    round completes when the receiver matched it). *)
val ssend_init :
  ?tag:int -> t -> 'a Mpisim.Datatype.t -> send_buf:'a Ds.Vec.t -> dst:int -> Mpisim.Persist.t

(** [recv_init ~count t dt ~src] builds a standing receive channel of
    capacity [count] (the datatype needs a [~default] element).  Returns
    the handle and the standing buffer; after each completed round the
    status' [count] says how many elements are valid. *)
val recv_init :
  ?tag:int ->
  count:int ->
  t ->
  'a Mpisim.Datatype.t ->
  src:int ->
  Mpisim.Persist.t * 'a Ds.Vec.t

(** [psend_init t dt ~send_buf ~partitions ~count ~dst] is the partitioned
    send ([count] elements {e per partition}; the buffer needs
    [partitions * count]).  Release partitions with [Persist.pready]. *)
val psend_init :
  ?tag:int ->
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  partitions:int ->
  count:int ->
  dst:int ->
  Mpisim.Persist.t

(** [precv_init ~partitions ~count t dt ~src] is the partitioned receive;
    poll per-partition arrival with [Persist.parrived]. *)
val precv_init :
  ?tag:int ->
  partitions:int ->
  count:int ->
  t ->
  'a Mpisim.Datatype.t ->
  src:int ->
  Mpisim.Persist.t * 'a Ds.Vec.t

(** [bcast_init t dt ~send_recv_buf] is the persistent broadcast; the root's
    buffer contents are re-read at each start. *)
val bcast_init :
  ?root:int -> t -> 'a Mpisim.Datatype.t -> send_recv_buf:'a Ds.Vec.t -> Mpisim.Persist.t

(** [start h] arms an inactive handle (MPI_Start). *)
val start : Mpisim.Persist.t -> unit

(** [startall hs] arms every handle (MPI_Startall). *)
val startall : Mpisim.Persist.t list -> unit

(** [free_request h] releases an inactive handle (MPI_Request_free). *)
val free_request : Mpisim.Persist.t -> unit

(** {1 Large counts (MPI-4 [MPI_Count])} *)

(** [send_sparse t dt ~count ~dst] sends [count] elements without a backing
    buffer — counts beyond {!Mpisim.Datatype.max_small_count} are
    first-class.  @raise Mpisim.Errors.Count_overflow on unrepresentable
    byte sizes. *)
val send_sparse : ?tag:int -> t -> 'a Mpisim.Datatype.t -> count:int -> dst:int -> unit

(** [recv_sparse t dt ~capacity ~src] receives a (possibly huge) message
    without a backing buffer; the status carries the true count. *)
val recv_sparse :
  ?tag:int -> t -> 'a Mpisim.Datatype.t -> capacity:int -> src:int -> Mpisim.Request.status

(** {1 Sessions (MPI-4 §11)} *)

(** [session ?name t] opens an isolated {!Mpisim.Session.t} for this rank
    (no communication, no shared counter). *)
val session : ?name:string -> t -> Mpisim.Session.t

(** [comm_of_pset s pname] derives a wrapped communicator over the named
    process set. *)
val comm_of_pset : Mpisim.Session.t -> string -> t

(** {1 Serialization (Sec. III-D3)}

    Each call moves one [Bytes] archive ({!Serialization}): the encoded
    value is the send window, the receive window is one exact-size
    [Bytes], and every part decodes in place from it.  Each issues the
    MPI calls of its typed counterpart with default counts (the size or
    counts exchange, then the data transfer), so PMPI profiles do not
    depend on the payload's representation. *)

val send_serialized : ?tag:int -> t -> 'a Serde.Codec.t -> 'a -> dst:int -> unit
val recv_serialized : ?tag:int -> t -> 'a Serde.Codec.t -> src:int -> 'a

(** [bcast_serialized t codec v] is the RAxML-NG one-liner
    ([bcast(send_recv_buf(as_serialized(obj)))], Fig. 11). *)
val bcast_serialized : ?root:int -> t -> 'a Serde.Codec.t -> 'a -> 'a

(** [allgather_serialized t codec v] gathers one arbitrary object per
    rank.  Each side pays {!Mpisim.Datatype.serialization_cost} for its
    encode and for every part it decodes.  The decode of all [p] parts is
    charged as one park ({!Mpisim.Comm.compute_until}) that ends exactly
    when [p] sequential [compute] charges in rank order would end. *)
val allgather_serialized : t -> 'a Serde.Codec.t -> 'a -> 'a array

(** [alltoallv_serialized t codec messages] ships one arbitrary object per
    destination rank ([messages.(d)] goes to rank [d]) and returns what
    every rank sent here — the irregular-exchange counterpart of
    {!allgather_serialized}, e.g. for shuffling heap-structured data.
    Costs are charged as in {!allgather_serialized}: one park for all
    decodes. *)
val alltoallv_serialized : t -> 'a Serde.Codec.t -> 'a array -> 'a array

(** {1 Communicator management} *)

val dup : t -> t
val split : t -> color:int -> key:int -> t option

(** [split_by_node t] splits by shared-memory node (the
    [MPI_Comm_split_type MPI_COMM_TYPE_SHARED] idiom): ranks on the same
    node of the simulated fabric end up in one communicator, ordered by
    [key] (default [0]: by parent rank).  On a flat fabric every rank is
    its own node, so each split communicator is a singleton. *)
val split_by_node : ?key:int -> t -> t

(** [node_of_rank t r] is the shared-memory node hosting rank [r] of this
    communicator (see {!Simnet.Netmodel.node_of}). *)
val node_of_rank : t -> int -> int
