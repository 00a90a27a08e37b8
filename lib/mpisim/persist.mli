(** Persistent and partitioned operation handles (MPI-4 §3.9, §4).

    A persistent handle is created {e inactive} by an [*_init] call that
    performs all argument validation, datatype commit, and checker
    registration exactly once.  {!start} arms it — reusing one pooled
    {!Request.t} across rounds — and the round completes through the normal
    engine event path; {!wait}/{!test} return it to inactive.  The
    lifecycle state machine:

    {v
        *_init            start              wait / test(Some)
      ──────────▶ Inactive ────▶ Active ──────────▶ Inactive ──▶ ...
                     │                                 │
                     └──────────── free ◀──────────────┘
                                    │
                                    ▼
                                  Freed   (terminal)
    v}

    [start] on an active or freed handle, [free] on an active handle, and
    any use after [free] are usage errors.  Waiting on an inactive handle
    returns {!Request.empty_status} (MPI-4 §3.7.3).

    Partitioned handles ({!pready}/{!parrived}) expose per-partition
    progress on top of the same machine: each partition completes
    independently on the engine's event queue, and the round's request
    completes when every partition has.

    The module is deliberately independent of [Comm]/[World]: the concrete
    operation behaviour is injected as closures by {!P2p} and
    {!Collectives}, whose [*_init] calls register the handle through
    {!Observe} (an inactive handle never freed is a leak). *)

type phase = Inactive | Active | Freed
type t

(** [make engine ~op ?partitions ?pready ?parrived ?cancel ?around_wait
    start] builds an inactive handle.  [start] launches one round (the
    handle it receives is already marked active with its request rearmed);
    [pready]/[parrived] implement partitioned progress; [cancel]
    deactivates a standing receive; [around_wait] wraps the blocking wait
    (tracing spans). *)
val make :
  Simnet.Engine.t ->
  op:string ->
  ?partitions:int ->
  ?pready:(t -> int -> unit) ->
  ?parrived:(t -> int -> bool) ->
  ?cancel:(t -> unit) ->
  ?around_wait:(t -> (unit -> Request.status) -> Request.status) ->
  (t -> unit) ->
  t

(** [request h] is the one request object reused across rounds — operation
    implementations complete/abort it; programs use {!wait}/{!test}. *)
val request : t -> Request.t

(** [starts h] counts completed [start] calls — round number, used by
    implementations to guard stale callbacks from earlier rounds. *)
val starts : t -> int

val is_active : t -> bool
val is_freed : t -> bool

(** [start h] arms an inactive handle (MPI_Start). *)
val start : t -> unit

(** [startall hs] arms every handle (MPI_Startall). *)
val startall : t list -> unit

(** [wait h] blocks until the active round completes and returns its
    status, deactivating the handle; on an inactive handle it returns
    {!Request.empty_status} immediately. *)
val wait : t -> Request.status

(** [test h] polls the active round; [Some status] deactivates. *)
val test : t -> Request.status option

(** [cancel h] deactivates a standing receive-like handle whose round will
    never be matched (e.g. shutting down a channel); a usage error on
    non-cancellable operations. *)
val cancel : t -> unit

(** [free h] releases an inactive handle (MPI_Request_free); terminal. *)
val free : t -> unit

(** [pready h i] marks partition [i] of an active partitioned send ready
    for transfer (MPI_Pready). *)
val pready : t -> int -> unit

(** [parrived h i] is true once partition [i] of the current (or just
    completed) round has arrived (MPI_Parrived). *)
val parrived : t -> int -> bool
