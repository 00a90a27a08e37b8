(** One-sided communication (MPI RMA windows, active-target fence mode).

    The paper notes that KaMPIng's core "is designed with the rest of the
    MPI standard in mind, facilitating a straightforward implementation in
    the future" (Sec. I) — this module is that claim exercised: windows,
    put/get/accumulate and fence synchronization built on the same typed
    runtime.

    Semantics follow MPI's fence epochs: origin-side calls between two
    {!fence}s are {e queued}; the closing fence (collective) applies every
    put and accumulate at the targets and materializes every get.  Within
    one epoch, updates to the same target window are applied in origin-rank
    order, then per origin in issue order (a deterministic refinement of
    MPI's "undefined unless separated by fences"). *)

type 'a t

(** A pending one-sided read; its value exists after the closing fence. *)
type 'a pending_get

(** [create comm dt local] exposes [local] as this rank's window segment
    (collective).  The array is shared, not copied: local loads/stores are
    ordinary array accesses, as with MPI windows. *)
val create : Comm.t -> 'a Datatype.t -> 'a array -> 'a t

(** [size_of win target] is the length of [target]'s segment (collected at
    creation). *)
val size_of : 'a t -> int -> int

(** [put win ~target ~target_pos data] queues a store of [data] into the
    target's segment. *)
val put : 'a t -> target:int -> target_pos:int -> 'a array -> unit

(** [accumulate win ~target ~target_pos op data] queues an element-wise
    read-modify-write. *)
val accumulate : 'a t -> target:int -> target_pos:int -> 'a Op.t -> 'a array -> unit

(** [get win ~target ~target_pos ~count] queues a read; the result is
    available from the returned handle after the next {!fence}. *)
val get : 'a t -> target:int -> target_pos:int -> count:int -> 'a pending_get

(** [get_result g] returns the data read.
    @raise Errors.Usage_error before the closing fence. *)
val get_result : 'a pending_get -> 'a array

(** [fence win] closes the current epoch (collective): applies all queued
    puts and accumulates, answers all gets, and synchronizes. *)
val fence : 'a t -> unit

(** [free win] releases the window (local bookkeeping only — call it after
    a closing {!fence} on every rank, like [MPI_Win_free]).  The checker's
    finalize pass reports windows never freed as {!Checker.Window_leak}. *)
val free : 'a t -> unit
