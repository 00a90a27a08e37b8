(** Message envelopes and per-rank mailboxes.

    Matching follows MPI semantics: a posted receive matches an incoming
    envelope when communicator, context (user vs. library-internal), source
    and tag agree, where source/tag may be wildcards.  Unexpected messages
    queue in arrival order; posted receives match in post order. *)

(** Wildcard constants (match any source / any tag). *)
val any_source : int

val any_tag : int

(** Matching context: user-level traffic and library-internal collective
    traffic live in separate matching spaces (real MPI uses separate context
    ids for this). *)
type ctx = User | Internal

(** A message in flight, always a copy of the sender's window (MPI send
    semantics: the sender may reuse its buffer once the send returns).

    - [Packed] is a dense copy of the sent elements together with their
      datatype; the witness lets the receiver copy type-safely.
    - [Serialized] carries a {!Datatype.serialized} window as [Bytes], one
      host byte per wire byte instead of one word per [char].  It obeys
      the same rules as [Packed]: only a {!Datatype.serialized} receive
      matches it ({!Datatype.char} is a type mismatch), its element count
      is its byte count, and a shorter receive window truncates.
    - [Sparse] is a datatype and an element count with no materialized
      buffer.  Sparse payloads let large-count tests and benchmarks move
      multi-GiB transfers (counts > 2^31) through the full matching/cost
      path without allocating real element arrays; the receiver side
      type-checks and count-checks exactly like the dense path but
      performs no copy. *)
type packed =
  | Packed : 'a Datatype.t * 'a array -> packed
  | Serialized : Bytes.t -> packed
  | Sparse : 'a Datatype.t * int -> packed

(** [pack dt buf pos count] copies the send window
    [buf.(pos) .. buf.(pos + count - 1)] into its in-flight form:
    [Serialized] for {!Datatype.serialized}, [Packed] for every other
    datatype.  Every send path builds its payload here. *)
val pack : 'a Datatype.t -> 'a array -> int -> int -> packed

(** Envelopes are mutable because the runtime recycles them through a
    free-list {!pool}: a delivered envelope's record is reused for a later
    message instead of being reallocated (a measurable share of minor-heap
    churn at large rank counts).  Consumers must not retain an envelope
    past the call that handed it to them. *)
type envelope = {
  mutable src : int;  (** sender's rank in the communicator *)
  mutable src_world : int;  (** sender's world rank (for checker attribution) *)
  mutable tag : int;
  mutable comm_id : int;
  mutable ctx : ctx;
  mutable count : int;
  mutable bytes : int;
  mutable sent_at : float;  (** injection time (for the checker's finalize scan) *)
  mutable payload : packed;
  mutable on_matched : (unit -> unit) option;  (** synchronous-send completion hook *)
  mutable trace : Trace.Event.message option;
      (** tracing record for this message, when the run is traced *)
  mutable pooled : bool;  (** true while the envelope sits in a free list *)
}

(** A posted (pending) receive. *)
type pending_recv = {
  want_src : int;  (** comm rank or {!any_source} *)
  want_tag : int;  (** tag or {!any_tag} *)
  want_comm : int;
  want_ctx : ctx;
  src_world : int;  (** world rank of [want_src], [-1] for wildcard *)
  comm_group : int array;  (** comm rank -> world rank, for failure checks *)
  deliver : envelope -> unit;
  on_fail : exn -> unit;
  owner_world : int;  (** the receiving rank *)
  mutable live : bool;
      (** cleared when the receive is matched, failed or dropped; retire a
          receive early with {!cancel}, not by writing this field *)
}

(** A parked blocking probe: notified (without consuming) when a matching
    message arrives. *)
type probe_waiter = {
  p_src : int;
  p_tag : int;
  p_comm : int;
  p_ctx : ctx;
  p_src_world : int;
  p_group : int array;
  notify : envelope -> unit;
  p_on_fail : exn -> unit;
  p_owner_world : int;  (** the probing rank *)
  mutable p_live : bool;
}

type mailbox

(** [create ()] is an empty mailbox. *)
val create : unit -> mailbox

(** [matches pr env] is the matching predicate. *)
val matches : pending_recv -> envelope -> bool

(** {1 Envelope pool}

    One pool per {!World}: envelopes cycle sender → mailbox → receiver →
    free list, so the steady-state message path allocates only the payload
    copy. *)

type pool

val create_pool : unit -> pool

(** [make_envelope pool ~src ... ~trace] is a fresh or recycled envelope
    with the given contents. *)
val make_envelope :
  pool ->
  src:int ->
  src_world:int ->
  tag:int ->
  comm_id:int ->
  ctx:ctx ->
  count:int ->
  bytes:int ->
  sent_at:float ->
  payload:packed ->
  on_matched:(unit -> unit) option ->
  trace:Trace.Event.message option ->
  envelope

(** [release pool env] returns [env] to the free list, dropping its
    payload/closure references.  Releasing an already-released envelope is
    a no-op (the [pooled] guard), so ownership hand-offs need not be
    exactly-once. *)
val release : pool -> envelope -> unit

(** [pool_stats pool] is [(made, reused)] — envelopes allocated fresh vs.
    recycled (the engine bench reports the reuse ratio). *)
val pool_stats : pool -> int * int

(** [arrive pool mb env] delivers an envelope: hands it to the first live
    matching posted receive (then releases it back to [pool] — delivery
    consumes the envelope synchronously), else queues it as unexpected. *)
val arrive : pool -> mailbox -> envelope -> unit

(** [take_unexpected mb ~src ~tag ~comm ~ctx] removes and returns the first
    queued envelope matching the given (possibly wildcard) pattern.

    When [choose] is given and [src] is {!any_source}, the candidates are
    the oldest matching envelope of each distinct source (every one a legal
    wildcard match under MPI's per-pair non-overtaking rule); [choose]
    receives their source world ranks and picks by index (clamped).
    Without [choose] the oldest match overall wins — the incumbent
    behaviour. *)
val take_unexpected :
  ?choose:(int array -> int) ->
  mailbox -> src:int -> tag:int -> comm:int -> ctx:ctx -> envelope option

(** [peek_unexpected mb ~src ~tag ~comm ~ctx] is like {!take_unexpected}
    without removing (probe). *)
val peek_unexpected : mailbox -> src:int -> tag:int -> comm:int -> ctx:ctx -> envelope option

(** [post mb pr] appends a pending receive (amortized O(1)). *)
val post : mailbox -> pending_recv -> unit

(** [cancel mb pr] retires the posted receive [pr] without delivering or
    failing it, and removes it from [mb], so the queue no longer keeps its
    closures and receive buffer reachable.  A no-op when [pr] is no longer
    live. *)
val cancel : mailbox -> pending_recv -> unit

(** [post_probe mb pw] parks a blocking probe. *)
val post_probe : mailbox -> probe_waiter -> unit

(** [fail_matching mb ~pred ~exn] fails (and removes) every live posted
    receive satisfying [pred] — used for failure injection and revocation. *)
val fail_matching : mailbox -> pred:(pending_recv -> bool) -> exn:exn -> unit

(** [drop_owned mb ~world_rank] deactivates and removes the posted receives
    owned by a dead rank. *)
val drop_owned : mailbox -> world_rank:int -> unit

(** [pending_count mb] is the number of live posted receives (diagnostics). *)
val pending_count : mailbox -> int

(** [unexpected_count mb] is the number of queued unexpected messages. *)
val unexpected_count : mailbox -> int

(** {1 Checker views}

    Non-destructive inspection used by the correctness checker at quiesce
    (deadlock diagnosis) and finalize (leak detection). *)

(** [live_posted mb] is every live posted receive, in post order. *)
val live_posted : mailbox -> pending_recv list

(** [live_probes mb] is every parked blocking probe. *)
val live_probes : mailbox -> probe_waiter list

(** [iter_unexpected mb f] applies [f] to each queued unexpected envelope. *)
val iter_unexpected : mailbox -> (envelope -> unit) -> unit
