(** Event recorder: the write side of the tracing subsystem.

    A recorder is either {e active} (allocated per traced run, accumulates
    events) or the shared {!inert} instance that means "tracing disabled".
    In the simulator, only [Mpisim.Observe] (one call per MPI operation)
    and the run driver write to it, and they check {!active} first, so a
    disabled recorder costs one load and branch per operation — the same
    zero-overhead discipline the correctness checker follows.  Collective
    spans carry the sequence number [Mpisim.Comm.next_coll_index] draws. *)

type t

(** The shared disabled recorder.  [active inert = false]; recording into
    it is a no-op. *)
val inert : t

(** [create ~ranks] allocates an empty active recorder for a world of
    [ranks] ranks. *)
val create : ranks:int -> t

val active : t -> bool

(** [add_span t span] appends a completed call span. *)
val add_span : t -> Event.span -> unit

(** [add_message t ~src ~dst ~tag ~bytes ~user ~sent ~arrived] records an
    injected message and returns the (mutable) record so the receive side
    can stamp it later via {!Event.stamp_match}. *)
val add_message :
  t ->
  src:int ->
  dst:int ->
  tag:int ->
  bytes:int ->
  user:bool ->
  sent:float ->
  arrived:float ->
  Event.message

(** [add_wait t ~rank ~t0 ~t1] records a suspension interval of [rank]'s
    fiber.  Zero-length intervals are dropped. *)
val add_wait : t -> rank:int -> t0:float -> t1:float -> unit

(** [rank_done t ~rank ~time] stamps the finish time of [rank]'s main
    fiber. *)
val rank_done : t -> rank:int -> time:float -> unit

(** [finish t ~total] freezes the recorder into an immutable {!Event.data}.
    Ranks that never stamped {!rank_done} get [total] as their end time. *)
val finish : t -> total:float -> Event.data

(** {2 Process-wide default}

    Mirrors [Checker]'s environment gating: the default used by
    [Mpisim.Mpi.run] when no explicit [?trace] is given is
    [default_of_env] of the [MPISIM_TRACE] environment variable. *)

(** [default_of_env v] reads a value of [MPISIM_TRACE]: [1], [true],
    [on], [yes] enable tracing and [0], [false], [off], [no] disable it
    (case-insensitive); unset or empty is off.
    @raise Invalid_argument naming the variable and the accepted
    spellings on anything else. *)
val default_of_env : string option -> bool

val default_enabled : unit -> bool

(** [with_default b f] runs [f] with the process-wide default forced to
    [b], restoring the previous value afterwards (also on exceptions). *)
val with_default : bool -> (unit -> 'a) -> 'a
