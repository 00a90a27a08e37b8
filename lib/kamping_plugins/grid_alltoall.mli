(** Two-dimensional grid all-to-all (paper Sec. V-A; Kalé et al., IPDPS
    2003).

    The p ranks are arranged in a virtual (near-)square grid.  A message
    from [src] to [dst] travels two hops: first within [src]'s {e row} to
    the rank sitting in [dst]'s {e column}, then within that column to
    [dst].  Each rank therefore opens O(sqrt p) connections per phase
    instead of O(p), trading a doubled communication volume (payloads carry
    routing envelopes) for O(sqrt p) message start-ups — a hardware-agnostic
    latency reduction with asymptotic guarantees.

    Construction is collective (two communicator splits); the resulting
    value is reusable for any number of exchanges. *)

type t

(** [create comm] builds the grid (collective). *)
val create : Kamping.Comm.t -> t

(** [columns grid] is the grid width (ceil(sqrt p)). *)
val columns : t -> int

(** [rows grid] is the grid height (the last row may be partial). *)
val rows : t -> int

(** [alltoallv grid dt ~send_buf ~send_counts] has the same semantics as
    {!Kamping.Comm.alltoallv} with internally computed receive parameters:
    returns the received elements grouped by source rank, plus the counts.
    The element datatype needs a default element (routing buffers are
    allocated on intermediate hops). *)
val alltoallv :
  t ->
  'a Mpisim.Datatype.t ->
  send_buf:'a Ds.Vec.t ->
  send_counts:int array ->
  'a Ds.Vec.t * int array
