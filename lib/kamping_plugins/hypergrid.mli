(** d-dimensional grid all-to-all — the paper's future-work direction
    ("generalizing the indirection patterns for all-to-all primitives to
    higher dimensions", Sec. VI), with message aggregation per hop.

    Ranks are arranged in a complete d-dimensional grid whose shape comes
    from factoring p exactly (no partial rows, unlike the 2D plugin's
    ceil-sqrt layout), and a message travels d hops, fixing one coordinate
    of its destination per hop.  Each hop aggregates everything headed for
    the same intermediate into one message, so a rank pays
    O(d * p^(1/d)) message start-ups per exchange at the price of routing
    envelopes on the payload (source and destination ride along) and
    d-fold volume. *)

type t

(** [create ?dims comm ~ndims] builds the grid; [dims] defaults to
    {!Mpisim.Cart.dims_create}[ ~nodes:p ~ndims].
    @raise Mpisim.Errors.Usage_error if the dims product differs from p. *)
val create : ?dims:int array -> Kamping.Comm.t -> ndims:int -> t

(** [max_partners t] is the per-phase partner bound
    [sum (dims - 1)] — the start-up budget of one exchange. *)
val max_partners : t -> int

(** [alltoallv t dt ~send_buf ~send_counts] — same semantics as
    {!Kamping.Comm.alltoallv} with computed receive side: returns the
    received elements grouped by source rank plus the per-source counts.
    The element datatype needs a default element. *)
val alltoallv :
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  send_counts:int array ->
  'a Ds.Vec.t * int array
