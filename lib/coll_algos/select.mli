(** The collective-algorithm selection engine.

    One [Select.t] lives in each simulated world; it holds the
    per-communicator override ("pin") table.  Selection itself is a pure
    argmin over the {!Cost} predictions, so — absent pins — every rank of
    a communicator picks the same algorithm from the same inputs without
    communicating.

    Pins are rank-local hints in the style of MPI info keys: to stay
    correct they must be set identically on every rank of the communicator
    before the collective (the test suite and the bench sweep do exactly
    that).  A pin naming an algorithm that is infeasible for the current
    call (e.g. recursive-doubling allgather on a non-power-of-two
    communicator, or a Rabenseifner allreduce of a non-commutative
    operation) falls back to the cost-based choice among feasible
    candidates. *)

type t

val create : unit -> t

(** [pin t ~cid ~coll ~algo] pins collective [coll] (["bcast"],
    ["allreduce"], ["allgather"], ["allgatherv"] or ["alltoall"]) on
    communicator [cid] to algorithm [algo].
    @raise Invalid_argument on an unknown collective or algorithm name. *)
val pin : t -> cid:int -> coll:string -> algo:string -> unit

(** [pin_table t ~cid ~coll table] installs a message-size-keyed pin: each
    [(min_bytes, algo)] row takes effect from [min_bytes] upward (the last
    row whose threshold is [<= bytes] wins; payloads below every threshold
    fall back to cost-based selection).  This is the representation the
    [Topology.Autotune] sweep generates.  An ["allgatherv"] table is keyed
    by the whole gathered vector's bytes.  Replaces any previous pin for
    [(cid, coll)].
    @raise Invalid_argument on an empty table, a negative threshold, or an
    unknown collective/algorithm name. *)
val pin_table : t -> cid:int -> coll:string -> (int * string) list -> unit

(** [unpin t ~cid ~coll] removes an override (a no-op if absent). *)
val unpin : t -> cid:int -> coll:string -> unit

(** [pinned t ~cid ~coll] is the unconditional override in force, if any
    ([None] for size-keyed tables — those depend on the payload). *)
val pinned : t -> cid:int -> coll:string -> string option

(** [pinned_table t ~cid ~coll] is the size-keyed table in force, if any,
    sorted by ascending threshold. *)
val pinned_table : t -> cid:int -> coll:string -> (int * string) list option

(** {1 Selection}

    The [?hier] profile (from {!Simnet.Netmodel.hier_for_group}) unlocks
    hierarchical candidates; without it they predict [infinity] and flat
    selection is unchanged. *)

val bcast :
  ?hier:Simnet.Netmodel.hier_profile ->
  t ->
  cid:int ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  Algo.bcast

val allreduce :
  ?hier:Simnet.Netmodel.hier_profile ->
  t ->
  cid:int ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  elems:int ->
  op_cost:float ->
  commutative:bool ->
  Algo.allreduce

val allgather : t -> cid:int -> Simnet.Netmodel.params -> p:int -> bytes:int -> Algo.allgather

(** [max_bytes] is the largest block, [total_bytes] the whole vector;
    both come from the counts, never from a rank's displacements, so
    every rank picks the same body. *)
val allgatherv :
  t -> cid:int -> Simnet.Netmodel.params -> p:int -> max_bytes:int -> total_bytes:int -> Algo.allgatherv

val alltoall :
  ?hier:Simnet.Netmodel.hier_profile ->
  t ->
  cid:int ->
  Simnet.Netmodel.params ->
  p:int ->
  bytes:int ->
  Algo.alltoall
