(** The observation point: what one MPI operation records.

    Every MPI entry point of the call layers (point-to-point, collectives,
    RMA, ULFM, topologies, groups) validates its arguments and then makes
    exactly one call into this module.  That call decides everything the
    operation records:

    - the PMPI call count ({!Profiling}) of a user-level call;
    - for a collective, the checker's ordering entry ({!Checker}) under the
      per-(rank, communicator) sequence number {!Comm.next_coll_index}
      draws, and the selected algorithm;
    - the request, persistent handle or window the call hands out, for the
      checker's finalize leak scan;
    - on a traced run, a timeline span ({!Trace.Recorder}) of the call.

    The call layers touch none of those three modules themselves.  An
    observer that is off costs one comparison.  The four hot
    point-to-point calls use {!p2p}/{!p2p_request}, so an untraced call
    allocates no closure; only on a traced run do they then run their
    body through {!span}. *)

(** Span categories, as they appear in [Trace.Event.span.sp_cat]. *)
type cat =
  | P2p  (** ["p2p"] *)
  | Coll  (** ["coll"] *)
  | Rma  (** ["rma"] *)
  | Comm_mgmt  (** ["comm"]: ULFM, Cartesian and graph topologies, groups *)
  | User  (** ["user"]: regions labelled by the program *)

(** What a call hands out, for the checker's finalize leak scan. *)
type handle =
  | Request of Request.t
  | Persistent of Persist.t
  | Window of bool ref  (** set to [true] when the window is freed *)

(** [call ?ctx ?track cat comm op f] observes one call named [op] and runs
    its body [f]: a user-level call ([ctx], default [User]) is counted,
    [track] is registered, and on a traced run [f] runs inside a span. *)
val call :
  ?ctx:Msg.ctx -> ?track:handle -> cat -> Comm.t -> string -> (unit -> 'a) -> 'a

(** [coll ?root ?count ?dt ?algo ?track comm op f] observes one
    collective call: it counts it, draws its sequence number, records the
    checker's ordering entry (an omitted [root], [count] or [dt] is not
    compared), counts the algorithm choice [algo] as ["op[algo]"], and runs
    [f], inside a ["coll"] span on a traced run.
    @raise Checker.Violation when the ranks disagree on the call. *)
val coll :
  ?root:int ->
  ?count:int ->
  ?dt:('d, 'b) Datatype.gen ->
  ?algo:string ->
  ?track:handle ->
  Comm.t ->
  string ->
  (unit -> 'a) ->
  'a

(** [p2p ~ctx comm op] and [p2p_request ~ctx comm op req] are {!call}
    without the body: they count the call (and track [req]) and return
    whether the caller must run its body inside {!span}. *)
val p2p : ctx:Msg.ctx -> Comm.t -> string -> bool

val p2p_request : ctx:Msg.ctx -> Comm.t -> string -> Request.t -> bool

(** [span ~ctx cat comm op f] runs [f] inside a span when a user-level
    call runs on a traced run, counting nothing: the body of a hot
    point-to-point call, persistent [MPI_Start]/[MPI_Wait]/[MPI_Pready]
    (which PMPI does not count), and user regions. *)
val span : ctx:Msg.ctx -> cat -> Comm.t -> string -> (unit -> 'a) -> 'a

(** [tracing comm] is true when the run records an event trace. *)
val tracing : Comm.t -> bool

(** {1 Message-level hooks} *)

(** [message w ~src ~dst ~tag ~bytes ~user ~sent ~arrived] counts one
    injected message and, on a traced run, returns its trace record for
    the envelope. *)
val message :
  World.t ->
  src:int ->
  dst:int ->
  tag:int ->
  bytes:int ->
  user:bool ->
  sent:float ->
  arrived:float ->
  Trace.Event.message option

(** [matched comm ~op ~posted env result] observes the match of [env] by
    call [op], whose receive was posted at [posted]: it stamps the receive
    side of a traced message and records a truncation or datatype mismatch
    ([result = Error _]).  Returns [result]. *)
val matched :
  Comm.t -> op:string -> posted:float -> Msg.envelope -> ('a, exn) result -> ('a, exn) result
