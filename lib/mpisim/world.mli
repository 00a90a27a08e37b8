(** Global state of one simulated machine: the event engine, the network
    model, one mailbox per rank, liveness for failure injection, and the
    profiling counters.

    Communicator {e shared state} ([comm_shared]) lives here: one value per
    communicator shared by all member ranks — it is what ULFM's [revoke]
    flips and what the group mapping reads. *)

type comm_shared = {
  cid : int;
  group : int array;  (** comm rank -> world rank *)
  net_params : Simnet.Netmodel.params;
      (** [Netmodel.params_for_group] of [group], computed at creation *)
  hier : Simnet.Netmodel.hier_profile option;
      (** [Netmodel.hier_for_group] of [group], computed at creation *)
  mutable revoked : bool;
}

type t = {
  engine : Simnet.Engine.t;
  net : Simnet.Netmodel.t;
  size : int;
  mailboxes : Msg.mailbox array;
  env_pool : Msg.pool;  (** world-wide envelope free list *)
  prof : Profiling.t;
  mutable next_comm_id : int;
  alive : Ds.Bitset.t;
  death_times : float array;
      (** world rank -> kill time; [infinity] while alive *)
  mutable fibers : Simnet.Engine.fiber array;
  detection_delay : float;  (** simulated failure-detection latency *)
  shrink_memo : (int * int, comm_shared) Hashtbl.t;
      (** (parent cid, epoch) -> shrunk communicator state *)
  agree_memo : (int * int, agree_cell) Hashtbl.t;
      (** (cid, epoch) -> in-progress agreement *)
  tuning : Coll_algos.Select.t;
      (** per-communicator collective-algorithm overrides and selection *)
  check : Checker.state;  (** correctness-checker state for this world *)
  trace : Trace.Recorder.t;  (** event recorder ({!Trace.Recorder.inert} when off) *)
  comms : (int, comm_shared) Hashtbl.t;
      (** cid -> shared state, for finalize-time revocation queries *)
  exhook : Exhook.t option;
      (** schedule-exploration hooks; [None] = incumbent deterministic run *)
  psets : (string, int array) Hashtbl.t;
      (** named process sets (sessions); ["mpi://world"] is built in *)
  session_comms : (string, comm_shared) Hashtbl.t;
      (** session-derived communicators, memoized per pset key so every
          member obtains the same shared state without collective
          communication or world counters visible to other libraries *)
}

(** State of one in-progress ULFM agreement: survivors deposit their
    contribution and park until the last one completes the round. *)
and agree_cell = {
  mutable acc : int;
  mutable waiting : int list;  (** world ranks that have not deposited yet *)
  mutable lost : int option;
      (** a participant that died before depositing: the round then fails
          with [Process_failed] at every survivor *)
  mutable agree_waiters : int Simnet.Engine.resumer list;
}

(** [create ~net_params ~size ()] builds a world of [size] ranks, all
    alive, on the flat model with [net_params]; [fabric] installs a tiered
    fabric instead (see {!Simnet.Netmodel.fabric}); [trace] installs an
    event recorder (default: the inert one — tracing off). *)
val create :
  ?fabric:Simnet.Netmodel.fabric ->
  ?trace:Trace.Recorder.t ->
  ?exhook:Exhook.t ->
  net_params:Simnet.Netmodel.params ->
  size:int ->
  unit ->
  t

(** [now w] is the simulated clock. *)
val now : t -> float

(** [match_chooser w] is the wildcard-receive source chooser derived from
    the exploration hooks, or [None] for the incumbent arrival-order
    matching. *)
val match_chooser : t -> (int array -> int) option

(** [arrival_adjust w] is the chaos-layer latency-jitter hook, if any. *)
val arrival_adjust : t -> (src:int -> dst:int -> arrival:float -> float) option

(** [fresh_comm ~world group] registers a new communicator over the given
    world ranks and computes its planning profile ([net_params], [hier]). *)
val fresh_comm : t -> int array -> comm_shared

(** [register_pset w name ranks] names a process set (session support).
    Idempotent for identical membership; re-registering a name with a
    different membership, out-of-range or duplicate ranks, and empty sets
    are usage errors.  The membership is stored sorted. *)
val register_pset : t -> string -> int array -> unit

(** [pset w name] is the sorted membership of a named process set.
    ["mpi://world"] is always present. *)
val pset : t -> string -> int array option

(** [session_comm w ~key group] is the communicator shared state derived
    from a process set, memoized by [key]: the first caller allocates it,
    later callers (other session members) receive the identical state.
    Unlike {!fresh_comm} via [comm_dup], this requires no collective
    agreement — session isolation. *)
val session_comm : t -> key:string -> int array -> comm_shared

(** [comm_revoked w cid] is true when communicator [cid] exists and was
    revoked (checker query). *)
val comm_revoked : t -> int -> bool

(** [comm_failed_at w cid] is the earliest simulated time at which a
    member of communicator [cid] died, or [infinity] when all members
    are alive (or [cid] is unknown).  Checker query: traffic already in
    flight at that time may have been legitimately abandoned when the
    failure tore down the surrounding protocol, whereas traffic
    initiated afterwards is still held to the usual leak rules. *)
val comm_failed_at : t -> int -> float

(** [is_alive w r] is rank [r]'s liveness. *)
val is_alive : t -> int -> bool

(** [any_dead w group] is the world rank of a dead member, if any. *)
val any_dead : t -> int array -> int option

(** [kill w r] fails world rank [r] {e now}: its fiber dies on next
    resumption, its posted receives vanish, and every posted receive
    anywhere that expects a message from [r] (directly or via wildcard over
    a group containing [r]) fails with [Process_failed] after the detection
    delay, as does every pending agreement [r] had not yet joined. *)
val kill : t -> int -> unit

(** [revoke w shared] marks the communicator revoked and fails every posted
    receive and pending agreement on it with [Comm_revoked]. *)
val revoke : t -> comm_shared -> unit
