(** Every message schedule of the collectives, implemented on
    point-to-point messaging.

    This is the runtime half of the tuned-collective subsystem: the
    algorithm catalogue and the cost-driven selection live in
    {!Coll_algos}, while this module holds one body per
    [Coll_algos.Algo.*] constructor and the schedules of the fixed
    collectives.  {!Collectives} validates, selects, observes and
    dispatches here; it sends no message itself.

    The data-movement bodies (broadcast, gather, scatter, allgather(v),
    alltoall(v)) take any datatype and touch its buffers only through the
    datatype's buffer operations, so a {!Datatype.serialized} [Bytes]
    window travels through the same schedules as an array; the reductions
    take typed datatypes.

    The bodies compose five schedule primitives, each written once: the
    binomial tree (broadcast and reduce), recursive doubling (allreduce,
    with one fold/unfold pair for non-power-of-two sizes, and the
    allgatherv body over variable blocks, with the same fold), the rooted
    linear loops ({!gather_linear}, {!scatter_linear}), the rings (the
    allgatherv ring, which sends every block, and a block ring that skips
    empty ones) and the prefix scan ({!prefix_scan}).  The tree and
    doubling primitives run over a member mapping: a rotation of the whole
    communicator, computed on the fly, or a member list, which is how the
    node-leader algorithms reuse them.

    All bodies take their internal tags explicitly so the non-blocking
    wrappers can allocate tags at call time (keeping rank-local tag
    counters aligned) and run the body inside a helper fiber.  Bodies are
    not individually profiled; the dispatching layer records both the
    plain MPI call name and the annotated algorithm choice. *)

(** Dissemination barrier: [ceil(log2 p)] rounds of +-2^k exchanges. *)
val dissemination : Comm.t -> tag:int -> unit

(** {1 Tuned collectives}

    Each runs the body of the given algorithm; [tags] are the internal
    tags the caller drew for it.  The hierarchical algorithms derive the
    node of every rank from the world's network model, and every rank
    derives the same node-membership structure from it — a node's members
    are its comm ranks ascending, its leader the lowest — so no routing
    envelopes are needed and results are bit-identical to the flat
    incumbents for exact (integer) operations. *)

(** [bcast comm dt buf pos count ~root algo ~tags] broadcasts
    [buf.(pos .. pos+count-1)] from [root]. *)
val bcast :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  int ->
  int ->
  root:int ->
  Coll_algos.Algo.bcast ->
  tags:int * int ->
  unit

(** Leaves the reduced [sendbuf.(pos .. pos+count-1)] in
    [recvbuf.(0 .. count-1)] on every rank. *)
val allreduce :
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  pos:int ->
  recvbuf:'a array ->
  count:int ->
  Coll_algos.Algo.allreduce ->
  tags:int * int * int * int ->
  unit

(** [my_block_buf.(my_block_pos ..)] is the caller's block; the
    concatenation lands in [recvbuf.(rpos ..)].  Ring and recursive
    doubling are the {!allgatherv} bodies on the uniform layout. *)
val allgather :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  recvbuf:'b ->
  rpos:int ->
  count:int ->
  my_block_pos:int ->
  my_block_buf:'b ->
  Coll_algos.Algo.allgather ->
  tag:int ->
  unit

(** Gathers the blocks [recvbuf.(pos_of i ..)] of [count_of i] elements;
    the caller seeds its own block.  The ring sends every block, empty ones
    included.  Recursive doubling skips zero-count messages and runs in
    place when the caller's non-empty blocks are laid out in rank order
    without gaps, through one packed copy otherwise; its messages do not
    depend on the layout, so ranks may pass different displacements. *)
val allgatherv :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  recvbuf:'b ->
  pos_of:(int -> int) ->
  count_of:(int -> int) ->
  Coll_algos.Algo.allgatherv ->
  tag:int ->
  unit

val alltoall :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  recvbuf:'b ->
  count:int ->
  Coll_algos.Algo.alltoall ->
  tags:int * int * int * int ->
  unit

(** {1 Fixed collectives} *)

(** Binomial reduction of [sendbuf.(pos .. pos+count-1)] into
    [recvbuf.(0 .. count-1)] at [root] ([recvbuf] is used there only). *)
val reduce :
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  pos:int ->
  recvbuf:'a array ->
  count:int ->
  root:int ->
  tag:int ->
  unit

(** Linear gather to [root]: every other rank sends [sendbuf.(spos ..)]
    ([scount] elements); the root copies its own block and receives rank
    [i]'s, in rank order, at [recvbuf.(rpos_of i ..)] ([rcount_of i]
    elements).  [recvbuf] is used at the root only. *)
val gather_linear :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  spos:int ->
  scount:int ->
  recvbuf:'b ->
  rpos_of:(int -> int) ->
  rcount_of:(int -> int) ->
  root:int ->
  tag:int ->
  unit

(** Linear scatter from [root], the mirror of {!gather_linear}: rank [i]
    gets [sendbuf.(spos_of i ..)] ([scount_of i] elements) in
    [recvbuf.(rpos ..)] ([rcount] elements).  [sendbuf] is used at the
    root only. *)
val scatter_linear :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  sendbuf:'b ->
  spos_of:(int -> int) ->
  scount_of:(int -> int) ->
  recvbuf:'b ->
  rpos:int ->
  rcount:int ->
  root:int ->
  tag:int ->
  unit

(** Recursive-doubling prefix reduction of [count] elements: the
    inclusive scan with [~inclusive:true], else the exclusive scan (rank
    0's [recvbuf] is left untouched, as in MPI). *)
val prefix_scan :
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  recvbuf:'a array ->
  count:int ->
  tag:int ->
  inclusive:bool ->
  unit

(** Reduce-scatter with equal blocks: binomial reduction of [p * count]
    elements to rank 0 ([tag]), then {!scatter_linear} of the blocks
    ([tag2]). *)
val reduce_scatter_block :
  Comm.t ->
  'a Datatype.t ->
  'a Op.t ->
  sendbuf:'a array ->
  recvbuf:'a array ->
  count:int ->
  tag:int ->
  tag2:int ->
  unit

(** The posted exchange of alltoall(v/w): every peer pair gets a message,
    empty ones included, all requests posted up front. *)
val post_all_exchange :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  tag:int ->
  scount_of:(int -> int) ->
  spos_of:(int -> int) ->
  rcount_of:(int -> int) ->
  rpos_of:(int -> int) ->
  sendbuf:'b ->
  recvbuf:'b ->
  unit

(** [distribute_shared comm ~members ~tag make] runs [make] at
    [members.(0)] and sends the new communicator state to the other
    members (comm ranks); every member returns it. *)
val distribute_shared :
  Comm.t -> members:int array -> tag:int -> (unit -> World.comm_shared) -> World.comm_shared
