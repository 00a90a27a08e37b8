(** Asynchronous message aggregation (paper Sec. VI: "we are currently
    working on generalizing the indirection patterns ... while also
    incorporating message aggregation.  This is applicable in ... algorithms
    with highly-irregular communication without hard synchronization").

    Small items addressed to individual ranks are buffered per destination
    and shipped in blocks once a buffer reaches the threshold; incoming
    blocks are handed to a user callback as they arrive, without any global
    synchronization.  {!finish} ends a round with NBX-style termination
    detection (all sent blocks matched + non-blocking barrier), after which
    every item sent by any rank has been delivered to its handler. *)

type 'a t

(** [create comm dt ~handler] builds an aggregator.  [handler ~src block]
    runs on the receiving rank for every arriving block; it must not call
    back into the same aggregator.

    @param threshold items buffered per destination before a block ships
    (default 256)
    @param tag plugin tag, in case several aggregators overlap
    @param persistent use MPI-4 persistent channels (default false): one
    standing [recv_init] per source (capacity [threshold], restarted after
    each delivered block) and one [ssend_init] per destination for full
    blocks, so steady-state rounds skip per-call validation and matching
    setup entirely.  Partial blocks (from {!flush}/{!finish}) and blocks
    overtaking a still-in-flight round fall back to ephemeral synchronous
    sends on the same tag, which match the same standing channels.  The
    datatype needs a [~default] element; retire the endpoints with
    {!close}. *)
val create :
  ?threshold:int ->
  ?tag:int ->
  ?persistent:bool ->
  Kamping.Comm.t ->
  'a Mpisim.Datatype.t ->
  handler:(src:int -> 'a Ds.Vec.t -> unit) ->
  'a t

(** [send t ~dst item] buffers [item] for [dst], shipping a block if the
    buffer is full.  Also opportunistically delivers any blocks that have
    already arrived here. *)
val send : 'a t -> dst:int -> 'a -> unit

(** [pending_items t] counts locally buffered (unshipped) items. *)
val pending_items : 'a t -> int

(** [poll t] delivers whatever blocks have arrived (non-blocking). *)
val poll : 'a t -> unit

(** [flush t] ships every non-empty partial buffer now, without NBX
    termination (non-collective, non-blocking).  Receivers deliver the
    blocks on their next {!poll}; a later {!finish} accounts for them as
    part of the current round.  Use it to bound batching latency: a
    time-based flush ships whatever accumulated below the threshold. *)
val flush : 'a t -> unit

(** [finish t] is collective: flushes all buffers, keeps delivering until
    global termination (every block sent by every rank in this round has
    been handled), then returns.  The aggregator is reusable afterwards.
    @raise Mpisim.Errors.Process_failed when a communicator member has
    died — termination can never be reached, so the failure surfaces
    ULFM-style for a recovery layer (e.g. {!Ckpt.run_sharded}) to
    handle. *)
val finish : 'a t -> unit

(** [close t] retires the persistent endpoints: cancels and frees every
    standing receive channel and frees every persistent send handle (the
    checker's finalize leak scan requires this).  Only legal at
    quiescence — call it after the last {!finish}.  A no-op in ephemeral
    mode and on a second call. *)
val close : 'a t -> unit
