(** User-Level Failure Mitigation primitives (MPI 5 / ULFM proposal).

    Failure injection kills a rank's fiber; operations that depend on the
    dead rank raise {!Errors.Process_failed} after a detection delay.
    Recovery follows the ULFM recipe the paper shows in Fig. 12:
    [revoke] to interrupt ongoing communication everywhere, then [shrink]
    to build a new communicator of survivors. *)

(** [schedule_failures world ~fail_at] arms a deterministic {e time-based}
    failure schedule: each [(world_rank, sim_time)] entry kills
    [world_rank] at simulated time [sim_time] (clamped to "now" when
    already past).

    Determinism semantics: the kills are discrete events on the
    simulated clock, so a given schedule produces the same failure
    points — relative to every rank's progress — on every run of a
    deterministic program.  Entries firing at the same instant are
    processed in list order; killing an already-dead rank is a no-op, so
    duplicate entries are harmless.  The whole schedule is validated
    before any kill is armed.
    @raise Errors.Usage_error on an out-of-range rank or a NaN time. *)
val schedule_failures : World.t -> fail_at:(int * float) list -> unit

(** [revoke comm] marks the communicator revoked on all ranks; pending and
    future operations on it raise {!Errors.Comm_revoked}. *)
val revoke : Comm.t -> unit

(** [is_revoked comm] tests the revocation flag. *)
val is_revoked : Comm.t -> bool

(** [shrink comm] is collective over the survivors: returns a fresh
    (non-revoked) communicator containing exactly the live members of
    [comm], in their original relative order.  It succeeds despite
    failures during the call; a member that dies during it may still be
    in the result, and operations on it then report the failure. *)
val shrink : Comm.t -> Comm.t

(** [agree comm v] reaches agreement on the bitwise AND of [v] over all
    surviving members (collective over survivors).
    @raise Errors.Process_failed at every survivor when a member dies
    during the call before contributing.
    @raise Errors.Comm_revoked when [comm] is or gets revoked: unlike
    ULFM's [MPI_Comm_agree], revocation interrupts the agreement. *)
val agree : Comm.t -> int -> int
