(** Fault tolerance via ULFM, with idiomatic exceptions (paper Sec. V-B,
    Fig. 12).

    Failures surface as [Mpisim.Errors.Process_failed] exceptions from any
    operation that depends on a dead peer.  Recovery follows the ULFM
    recipe: catch, [revoke] the communicator so every other rank's pending
    operations abort too, then [shrink] to a survivors-only communicator
    and retry. *)

(** Raised by {!with_recovery} when [?max_attempts] attempts all ended in
    a detected failure — the diagnostic carries how many were made. *)
exception Recovery_exhausted of { attempts : int }

(** [is_revoked t] tests the ULFM revocation flag. *)
val is_revoked : Kamping.Comm.t -> bool

(** [revoke t] interrupts all current and future operations on the
    communicator everywhere. *)
val revoke : Kamping.Comm.t -> unit

(** [shrink t] builds the survivors-only communicator (collective over the
    survivors). *)
val shrink : Kamping.Comm.t -> Kamping.Comm.t

(** [agree t v] reaches agreement on the bitwise AND of [v] across
    survivors. *)
val agree : Kamping.Comm.t -> int -> int

(** [with_recovery t f] runs [f comm], and on a detected process failure
    performs revoke + shrink and retries [f] on the shrunk communicator —
    the Fig. 12 pattern packaged as a combinator.  [None] means only that
    no rank is left.

    [?max_attempts] (default 9) bounds the total number of attempts
    (calls to [f]): under a persistent failure schedule the combinator
    raises {!Recovery_exhausted} naming the attempt count, so the caller
    can tell exhaustion from extinction.
    @raise Recovery_exhausted when [max_attempts] attempts all failed.
    @raise Mpisim.Errors.Usage_error on [max_attempts <= 0]. *)
val with_recovery :
  ?max_attempts:int -> Kamping.Comm.t -> (Kamping.Comm.t -> 'a) -> ('a * Kamping.Comm.t) option
