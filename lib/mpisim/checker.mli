(** MUST-style correctness checking inside the simulator.

    Because the discrete-event simulator observes every primitive on every
    rank, it can host the checks that real MPI users need an external tool
    (MUST, Marmot) or KaMPIng's communication-level assertions for:

    - {b deadlock}: when the simulation quiesces with blocked fibers the
      run terminates with a structured report of the wait-for cycle and
      each rank's pending operation, instead of an opaque hang;
    - {b collective ordering}: the N-th collective issued on a communicator
      must agree across ranks on operation, root, count and datatype (the
      paper's class of assertions that require communication);
    - {b resource leaks} at finalize: unwaited requests, never-matched
      sends, unfreed windows;
    - {b matching errors}: truncation and datatype mismatches are recorded
      as structured diagnostics at p2p match time (the exception still
      propagates to the caller as before).

    Checks are grouped in levels mirroring the paper's assertion taxonomy;
    at {!Off} every hook returns immediately, so fully parameterized calls
    keep their zero-overhead profile (no extra MPI calls, no extra
    simulated events at any level — the checker is an observer). *)

(** Checking levels, cumulative from top to bottom. *)
type level =
  | Off  (** no checking — the zero-overhead production mode *)
  | Light  (** record match-time errors (truncation, datatype mismatch) *)
  | Heavy
      (** plus deadlock diagnosis at quiesce and resource-leak checks at
          finalize *)
  | Communication
      (** plus cross-rank collective-ordering agreement — the checks that
          would require extra communication in a real MPI *)

(** [set_level l] / [level ()] configure the global checker level.  The
    default is [level_of_env] of the [MPISIM_CHECK] environment
    variable. *)
val set_level : level -> unit

val level : unit -> level

(** [enabled l] is true when the current level includes [l]. *)
val enabled : level -> bool

(** [with_level l f] runs [f] with the level temporarily set to [l]. *)
val with_level : level -> (unit -> 'a) -> 'a

(** [level_of_env v] reads a value of [MPISIM_CHECK]: ["off"] (or
    ["none"]), ["light"], ["heavy"], ["communication"] (or ["comm"]),
    case-insensitive; unset or empty is [Light].
    @raise Invalid_argument naming the variable and the accepted
    spellings on anything else, so a misspelled level cannot silently
    weaken a run. *)
val level_of_env : string option -> level

(** {1 Diagnostics} *)

(** The signature of one collective call, as agreed across ranks.  A
    [coll_count] of [-1] and a [coll_dt] of [""] mean "not checked" (used
    by the v-variants whose counts legitimately differ per rank). *)
type coll_sig = { coll_op : string; coll_root : int; coll_count : int; coll_dt : string }

type detail =
  | Deadlock_cycle of {
      cycle : int list;  (** one wait-for cycle in world ranks, if any *)
      blocked : (int * string) list;  (** every blocked rank and its pending operation *)
    }
  | Collective_mismatch of {
      index : int;  (** position in the communicator's collective sequence *)
      field : string;  (** first disagreeing field: "operation", "root", "count" or "datatype" *)
      expected : coll_sig;  (** what the first rank to reach [index] called *)
      got : coll_sig;
    }
  | Truncation of { sent : int; capacity : int }
  | Datatype_mismatch of { sent : string; expected : string }
  | Request_leak  (** a request whose completion the program never observed *)
  | Persistent_leak of { starts : int }
      (** a persistent request never released with [MPI_Request_free];
          [starts] is how many rounds it ran *)
  | Unmatched_send of { dst : int; tag : int; count : int }
  | Window_leak  (** an RMA window never released with [Win.free] *)

(** One structured finding.  [rank] is a world rank ([-1] when the finding
    is not attributable to one rank), [comm] a communicator id ([-1] when
    not applicable), [op] the MPI operation involved and [location] the
    checking site ([p2p-match], [collective], [quiesce] or [finalize]). *)
type diagnostic = { rank : int; comm : int; op : string; location : string; detail : detail }

(** Raised inside the offending rank when a communication-level check fails
    (currently: collective-ordering disagreement). *)
exception Violation of diagnostic

val to_string : diagnostic -> string

(** {1 Per-world state and hooks}

    One [state] lives in each {!World.t}.  The call layers reach the
    recording hooks below only through {!Observe}, after validating the
    call's arguments; each hook returns after one level comparison when
    the checker is below its gating level. *)

type state

val create : unit -> state

(** [diagnostics st] is every finding recorded so far, in order. *)
val diagnostics : state -> diagnostic list

(** [record_collective st ~rank ~comm ~index ~op ~root ~count ~datatype]
    logs the calling rank's [index]-th collective on communicator [comm]
    (see {!Comm.next_coll_index}) and verifies it against the other ranks'
    entries at that index.  Pass [root = -1] for non-rooted operations,
    [count = -1] / [datatype = ""] to skip those fields.  Active at
    {!Communication}.
    @raise Violation on disagreement (after recording the diagnostic). *)
val record_collective :
  state ->
  rank:int ->
  comm:int ->
  index:int ->
  op:string ->
  root:int ->
  count:int ->
  datatype:string ->
  unit

(** [record_match_error st ~rank ~comm ~op e] records a truncation or
    datatype mismatch detected while matching a message.  Active at
    {!Light}. *)
val record_match_error : state -> rank:int -> comm:int -> op:string -> exn -> unit

(** [track_request st ~rank ~comm ~op ~at req] registers a user-visible
    request for the finalize leak check; [at] is the simulated creation
    time (used to scope the damaged-communicator exemption).  Active at
    {!Heavy}. *)
val track_request : state -> rank:int -> comm:int -> op:string -> at:float -> Request.t -> unit

(** [track_persistent st ~rank ~comm ~op ~at ~freed ~starts] registers a
    persistent handle for the finalize leak scan.  The closures read the
    handle's state at finalize time: a handle for which [freed ()] is still
    false — whether parked inactive or abandoned mid-round — is reported as
    a {!Persistent_leak} carrying [starts ()].  Active at {!Heavy}. *)
val track_persistent :
  state ->
  rank:int ->
  comm:int ->
  op:string ->
  at:float ->
  freed:(unit -> bool) ->
  starts:(unit -> int) ->
  unit

(** [track_window st ~rank ~comm ~freed] registers an RMA window created
    by [rank]; it is reported as a {!Window_leak} if [!freed] is still
    false at finalize.  Active at {!Heavy}. *)
val track_window : state -> rank:int -> comm:int -> freed:bool ref -> unit

(** [diagnose_deadlock st ~mailboxes ~parked ~rank_alive] builds the
    structured deadlock report from the posted-receive queues and the list
    of parked world ranks, records it, and returns it. *)
val diagnose_deadlock :
  state ->
  mailboxes:Msg.mailbox array ->
  parked:int list ->
  rank_alive:(int -> bool) ->
  diagnostic

(** [finalize st ~mailboxes ~rank_alive ~comm_revoked ~comm_failed_at]
    runs the end-of-run leak checks: unobserved requests, never-matched
    user sends and unfreed windows.  State owned by dead ranks or revoked
    communicators is skipped (ULFM failure injection leaves it behind
    legitimately).  On a {e damaged} communicator — one with a dead
    member ([comm_failed_at], see [World.comm_failed_at]) — only traffic
    already in flight at the failure time is exempt: two live survivors
    may legitimately abandon an exchange (e.g. a buddy checkpoint
    [sendrecv]) when a third member's failure aborts the surrounding
    protocol before revocation, but traffic initiated {e after} the
    failure is still held to the usual rules, so a genuine live-to-live
    leak is reported even when an unrelated member died earlier. *)
val finalize :
  state ->
  mailboxes:Msg.mailbox array ->
  rank_alive:(int -> bool) ->
  comm_revoked:(int -> bool) ->
  comm_failed_at:(int -> float) ->
  unit
