(** Variant-dispatched sparse message exchange for the graph workloads.

    The Fig. 10 communication regimes as one interchangeable primitive:
    the same [(destination rank, payload)] buckets can travel through the
    NBX-based sparse all-to-all plugin, a dense tuned [alltoallv], or
    MPI-3 neighborhood collectives over a static topology — and every
    variant hands back the {e bit-identical} [(source, payload)] stream,
    sorted by source, so the applications differential-test the whole
    transport axis for free.

    Messages addressed to the caller's own rank never touch the wire:
    they are spliced into the result at their sorted position, which
    keeps the delivered stream independent of the variant (NBX has no
    self-channel, [alltoallv] does). *)

type variant = Sparse | Dense | Neighbor

val variant_name : variant -> string
val all_variants : variant list

type t

(** [create kc ~partners] declares the static communication pattern:
    this rank may exchange with [partners] (own rank entries are
    ignored).  Collective — the partner relation is symmetrized with an
    all-to-all of flags so the neighborhood topology is consistent even
    for directed edge sets.  The MPI-3 topology is built once, here
    (rebuilding it per exchange is exactly what Sec. V-A argues does not
    scale). *)
val create : Kamping.Comm.t -> partners:int array -> t

(** [exchange t variant dt ~messages] routes each [(dst, payload)]
    bucket and returns the received [(src, payload)] pairs sorted by
    source, empty payloads dropped — the same list for every variant.
    Collective over the communicator of [create].
    @raise Mpisim.Errors.Usage_error when a non-empty bucket addresses a
    rank outside the declared partner set (plus self). *)
val exchange :
  t -> variant -> 'a Mpisim.Datatype.t -> messages:(int * 'a Ds.Vec.t) list -> (int * 'a Ds.Vec.t) list

(** [buckets fill] collects what [fill push] pushes, by destination, into
    the [(dst, payload)] messages {!exchange} takes; each payload keeps
    push order. *)
val buckets : ((int -> 'a -> unit) -> unit) -> (int * 'a Ds.Vec.t) list
