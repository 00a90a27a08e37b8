(** Point-to-point communication (blocking and non-blocking).

    A buffer is whatever its datatype holds elements in (an ['a array]
    for a typed datatype, [Bytes] for {!Datatype.serialized}), with an
    optional [pos]/[count] window, mirroring MPI's (pointer, count,
    datatype) triples.  All functions must be called from inside a rank
    fiber.

    The optional [ctx] argument of {!send}, {!isend}, {!recv} and {!irecv}
    separates user traffic from library-internal collective traffic; it
    defaults to user context and is only set to [Internal] by the
    collective algorithms.  Every other call is user traffic. *)

(** Match any sender. *)
val any_source : int

(** Match any tag. *)
val any_tag : int

(** [send comm dt buf ~dst ~tag] blocks until the message is injected into
    the network (standard-mode send: local completion). *)
val send :
  ?ctx:Msg.ctx ->
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  dst:int ->
  tag:int ->
  unit

(** [isend comm dt buf ~dst ~tag] is the non-blocking send; the request
    completes at injection time.  The runtime copies the payload eagerly, so
    the simulation itself is race-free — the ownership discipline that makes
    this safe in real MPI is enforced by the {e KaMPIng layer} on top. *)
val isend :
  ?ctx:Msg.ctx ->
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  dst:int ->
  tag:int ->
  Request.t

(** [issend comm dt buf ~dst ~tag] is the non-blocking {e synchronous} send:
    the request completes only once the receiver has matched the message
    (the building block of the NBX sparse all-to-all algorithm). *)
val issend :
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  dst:int ->
  tag:int ->
  Request.t

(** [recv comm dt buf ~src ~tag] blocks until a matching message arrives and
    is copied into [buf] starting at [pos]; [count] bounds the capacity.
    @raise Errors.Type_mismatch on datatype disagreement
    @raise Errors.Truncated if the message does not fit
    @raise Errors.Process_failed if the awaited peer has failed *)
val recv :
  ?ctx:Msg.ctx ->
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  src:int ->
  tag:int ->
  Request.status

(** [irecv comm dt buf ~src ~tag] posts a non-blocking receive. *)
val irecv :
  ?ctx:Msg.ctx ->
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  src:int ->
  tag:int ->
  Request.t

(** [probe comm ~src ~tag] blocks until a matching message is available
    (without receiving it) and returns its status — the way to learn a
    message's size before allocating the receive buffer. *)
val probe : Comm.t -> src:int -> tag:int -> Request.status

(** [iprobe comm ~src ~tag] checks for a matching unexpected message without
    receiving it. *)
val iprobe : Comm.t -> src:int -> tag:int -> Request.status option

(** [sendrecv comm dt ~send ~dst ~stag ~recv ~src ~rtag] exchanges messages
    with two (possibly different) peers without deadlocking. *)
val sendrecv :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  send:'b ->
  ?send_pos:int ->
  ?send_count:int ->
  dst:int ->
  stag:int ->
  recv:'b ->
  ?recv_pos:int ->
  ?recv_count:int ->
  src:int ->
  rtag:int ->
  unit ->
  Request.status

(** [sendrecv_replace comm dt buf ~dst ~stag ~src ~rtag] sends the buffer's
    contents and receives the reply into the same buffer
    (MPI_Sendrecv_replace). *)
val sendrecv_replace :
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  dst:int ->
  stag:int ->
  src:int ->
  rtag:int ->
  Request.status

(** {1 Large-count transfers (MPI-4 [MPI_Count])}

    The sparse path moves a transfer of any representable byte size through
    the full matching, cost-model, checker and trace machinery {e without}
    materializing an element buffer — counts above
    {!Datatype.max_small_count} (2 GiB-class transfers) are first-class.
    A sparse message matched by a buffered [recv] passes the same type and
    capacity checks but copies nothing. *)

(** [send_sparse comm dt ~count ~dst ~tag] sends [count] elements of [dt]
    without a backing buffer.
    @raise Errors.Count_overflow when [count * extent] is unrepresentable *)
val send_sparse :
  Comm.t -> ('a, 'b) Datatype.gen -> count:int -> dst:int -> tag:int -> unit

(** [recv_sparse comm dt ~capacity ~src ~tag] receives a message of up to
    [capacity] elements without a backing buffer, returning its status
    (including the true large count).
    @raise Errors.Truncated when the sender's count exceeds [capacity] *)
val recv_sparse :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  capacity:int ->
  src:int ->
  tag:int ->
  Request.status

(** {1 Persistent operations (MPI-4 §3.9)}

    The [*_init] calls validate everything once — communicator, tag, window
    bounds, datatype commit, peer rank — charge the per-call setup cost
    once, register the handle with the checker, and return an {e inactive}
    {!Persist.t}.  Each {!Persist.start} then reuses the validated fast
    path and the world's pooled envelopes, paying only the network cost:
    matching-once is what the persistent API amortizes. *)

(** [send_init comm dt buf ~dst ~tag] is the persistent standard-mode send;
    each round's request completes at injection time (like {!isend}).  The
    payload is re-read from [buf] at each [start]. *)
val send_init :
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  dst:int ->
  tag:int ->
  Persist.t

(** [ssend_init comm dt buf ~dst ~tag] is the persistent {e synchronous}
    send: each round completes only once the receiver matched it (the
    persistent analogue of {!issend}, safe under NBX-style termination). *)
val ssend_init :
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  dst:int ->
  tag:int ->
  Persist.t

(** [recv_init comm dt buf ~src ~tag] is the persistent receive ([src] may
    be {!any_source}).  The handle supports {!Persist.cancel}, so a
    standing channel can be retired before [free]. *)
val recv_init :
  ?pos:int ->
  ?count:int ->
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  src:int ->
  tag:int ->
  Persist.t

(** {1 Partitioned communication (MPI-4 §4)}

    [count] is {e per partition}; the buffer must hold
    [partitions * count] elements.  Each partition travels independently:
    the sender releases partition [i] with {!Persist.pready}, the receiver
    observes arrival with {!Persist.parrived}, and the round's request
    completes when every partition has transferred. *)

val psend_init :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  partitions:int ->
  count:int ->
  dst:int ->
  tag:int ->
  Persist.t

(** [precv_init comm dt buf ~partitions ~count ~src ~tag] — the wildcard
    source is not allowed (as in MPI-4). *)
val precv_init :
  Comm.t ->
  ('a, 'b) Datatype.gen ->
  'b ->
  partitions:int ->
  count:int ->
  src:int ->
  tag:int ->
  Persist.t
