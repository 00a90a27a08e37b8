(** Analytic auto-tuning of collective algorithm selection.

    [tune] sweeps the {!Coll_algos.Cost} model over a message-size grid for
    one (fabric, communicator size) pair and folds the per-size winners
    into message-size-keyed pin tables ({!Coll_algos.Select.pin_table}
    rows).  The sweep reuses the runtime's own pinless argmin, so at every
    sweep point the generated table agrees with what cost-based selection
    would pick live; between sweep points the table holds the last winner
    (piecewise-constant interpolation).

    Everything here is a pure function of the fabric description, so every
    rank computes an identical plan without communicating — {!install} is
    called collectively but sends nothing. *)

(** [(min_bytes, algo)] rows, ascending; the first row is anchored at 0. *)
type table = (int * string) list

type plan = {
  t_p : int;  (** communicator size the plan was tuned for *)
  t_sizes : int list;  (** the sweep grid, ascending *)
  t_bcast : table;
  t_allreduce : table;
  t_alltoall : table;
}

(** {1 Raw predictions}

    Candidate costs in catalogue order, for predicted-vs-simulated
    validation (see [bench/]'s collectives gate). *)

val predict_bcast :
  ?hier:Simnet.Netmodel.hier_profile ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  (string * float) list

(** [predict_allreduce] prices a reduction of 8-byte elements at the
    built-in operators' cost per combined element. *)
val predict_allreduce :
  ?hier:Simnet.Netmodel.hier_profile ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  (string * float) list

val predict_alltoall :
  ?hier:Simnet.Netmodel.hier_profile ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  (string * float) list

(** {1 Tuning} *)

(** [tune fabric ~p] tunes a [p]-rank communicator occupying ranks
    [0 .. p-1] of [fabric] (block-placed groups — the common case).
    Reductions are tuned for a commutative built-in operator on 8-byte
    elements.
    @param sizes message-size sweep grid (default: eight geometric
    points, 8 B to 16 MiB)
    @raise Invalid_argument on an empty sweep or [p] exceeding the fabric. *)
val tune :
  ?sizes:int list ->
  Fabric.t ->
  p:int ->
  plan

(** [tune_for_comm comm] tunes for a live communicator: the profile comes
    from the communicator's actual group on its world's network model, so
    sub-communicators (e.g. a {!Mpisim.Collectives.split_by_node} leader
    comm) tune against their own tier.  It sweeps {!tune}'s default
    sizes. *)
val tune_for_comm : Mpisim.Comm.t -> plan

(** [install plan comm] pins the plan's tables on [comm] via
    {!Mpisim.Collectives.pin_table_algorithm}.  Call it on every rank
    (plans are deterministic, so rank-local installs agree). *)
val install : plan -> Mpisim.Comm.t -> unit

(** [crossovers table] is the thresholds where the winner changes (the
    predicted crossover points; empty for a single-algorithm table). *)
val crossovers : table -> int list

val to_string : plan -> string
