(** Non-blocking MPI results: memory safety for non-blocking communication
    (paper Sec. III-E).

    A ['a t] encapsulates the [MPI_Request] {e and} every buffer involved in
    the operation.  The data is only reachable through {!wait} (blocks,
    then returns it) or {!test} (returns [Some data] only once the request
    completed) — by construction there is no way to read a receive buffer
    or touch a moved-in send buffer while the operation is in flight.
    This is the role [std::future] cannot play for MPI (no guaranteed
    background progress), realized instead on top of the request.

    Buffers moved into the call are returned to the caller as part of the
    result value, without copying. *)

type 'a t

(** [make request extract] wraps a pending request; [extract status] builds
    the user-visible value on completion (it runs at most once, and its
    result is cached). *)
val make : Mpisim.Request.t -> (Mpisim.Request.status -> 'a) -> 'a t

(** [wait r] blocks the caller until the operation finished and returns the
    owned data. *)
val wait : 'a t -> 'a

(** [test r] is [Some data] if the operation finished, [None] otherwise —
    the data stays owned by the result until it is surrendered. *)
val test : 'a t -> 'a option

(** [request r] exposes the native request handle for interoperability with
    plain-MPI code (the gradual-migration story of Sec. III-F). *)
val request : 'a t -> Mpisim.Request.t

(** [map f r] post-processes the owned data upon completion. *)
val map : ('a -> 'b) -> 'a t -> 'b t
