(** Non-blocking operation handles.

    A request completes with a {!status} (like [MPI_Status]) or fails with
    an exception (ULFM failures surface here).  [wait] parks the calling
    fiber until completion; [test] polls without blocking.

    A request made {!due} completes at a reserved engine slot
    ({!Simnet.Engine.reserve}) instead of an event.  Every read ([test],
    [is_complete], [wait], [wait_any]'s scan, [abort], [reactivate],
    [is_failed]) first settles it: once the slot's key has passed, the
    request is complete, exactly as if its event had fired.  A [wait] (or
    a [wait_any] about to park) on a request whose slot has not passed
    pushes the slot's event and suspends on it as on any pending
    request. *)

(** Completion information of a receive (senders get a synthetic status). *)
type status = {
  source : int;  (** rank of the peer, in the communicator the call used *)
  tag : int;
  count : int;  (** number of elements actually transferred *)
}

type t

(** [create engine] is a fresh pending request. *)
val create : Simnet.Engine.t -> t

(** [completed_now engine status] is an already-complete request (used for
    self-messages and empty transfers). *)
val completed_now : Simnet.Engine.t -> status -> t

(** The "empty" status (MPI-4 §3.7.3): [source = -1], [tag = -1],
    [count = 0] — what waiting on an inactive persistent request returns. *)
val empty_status : status

(** [reactivate r] rearms a completed (or failed) request back to pending —
    the [MPI_Start] transition of persistent requests, which reuse one
    request object across rounds.  Reactivating a still-pending request is
    a usage error. *)
val reactivate : t -> unit

(** [due r ~at status] makes the pending [r] complete with [status] at the
    engine slot an event scheduled now for time [at] would take, without
    scheduling it.  The caller must not complete [r] any other way; a
    request that is not pending is a usage error. *)
val due : t -> at:float -> status -> unit

(** [complete r status] transitions a pending request to complete and wakes
    the waiter, if any.  Completing a complete or due request is a usage
    error. *)
val complete : t -> status -> unit

(** [abort r exn] fails a pending request; [wait]/[test] will re-raise. *)
val abort : t -> exn -> unit

(** [is_complete r] is true once completed (successfully or not).  A [true]
    answer counts as the program observing completion (NBX-style protocols
    poll this instead of waiting), so the checker's leak detection will not
    flag the request. *)
val is_complete : t -> bool

(** [wait r] blocks the calling fiber until completion.
    @raise the request's failure exception if it was aborted. *)
val wait : t -> status

(** [test r] is [Some status] if complete, [None] otherwise.
    @raise the failure exception if the request was aborted. *)
val test : t -> status option

(** [wait_all rs] waits for every request, returning statuses in order. *)
val wait_all : t list -> status list

(** [wait_any rs] blocks until at least one request in the (non-empty) list
    is complete and returns its index and status. *)
val wait_any : t list -> int * status

(** {1 Checker support} *)

(** [was_observed r] is true once the program saw the request's completion
    through [wait]/[test]/[is_complete] (directly or via the [_all]/[_any]
    combinators). *)
val was_observed : t -> bool

(** [is_failed r] is true when the request was aborted — the leak check
    skips failed requests (failure injection legitimately abandons them). *)
val is_failed : t -> bool
