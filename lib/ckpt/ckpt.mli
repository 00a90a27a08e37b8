(** Application-level in-memory checkpoint/restart on top of ULFM.

    The subsystem turns the ULFM primitives (revoke/shrink/agree, paper
    Sec. V-B) into survivable applications through one entry point,
    {!run_sharded}:

    - {b Shards.}  State is partitioned into [n_shards] virtual ranks,
      fixed for the lifetime of the computation.  Each physical rank
      owns a set of shards (initially [shard mod p]); after a failure
      the survivors adopt the orphaned shards.  Because the partition is
      independent of the physical rank count, a recovered run computes
      {e bit-identical} results to a failure-free one.

    - {b Checkpointing.}  A checkpoint encodes every owned shard as one
      {!Bundle} (its state and the round counter), packs them into one
      snapshot ({!Snapshot}), keeps it in memory, and exchanges it with
      a buddy rank (XOR partner: [rank lxor 1]) via [sendrecv] of
      length-prefixed byte buffers, so every snapshot survives any
      single-rank failure per buddy pair.  With an odd communicator
      size, the self-paired last rank additionally ships its copy to
      rank 0.  The engine keeps the two most recent epochs: a failure
      mid-checkpoint can always fall back to the previous one.

    - {b Recovery.}  On a detected failure {!run_sharded} revokes and
      shrinks, then survivors allgather an index of their stored
      snapshots, deterministically compute the newest globally complete
      epoch (every shard covered by some survivor's copy), confirm it
      with ULFM [agree], restore — each shard by a deterministically
      designated holder — and immediately write a fresh checkpoint under
      the new buddy pairing before resuming.

    - {b Scheduling.}  After every round {!run_sharded} consults a
      {!Schedule} (Young/Daly-optimal interval derived from the
      LogGP-predicted checkpoint cost and the injected failure rate).
      The schedule is resolved from values agreed across the
      communicator (an [allreduce]-max of the snapshot size at the first
      checkpoint and after every recovery, and of the measured
      per-round cost at each checkpoint), so every rank derives the same
      period and all ranks checkpoint at the same round; between
      checkpoints the decision is purely local.

    {!route} carries messages between shards through their current
    owners. *)

module Snapshot = Snapshot
module Schedule = Schedule

(** One shard's checkpoint bundle: an entry count of 2, then the state
    under the application's [name] and the round counter under
    ["round"], each as a name and a length-prefixed serde encoding. *)
module Bundle : sig
  val encode : name:string -> 's Serde.Codec.t -> 's -> round:int -> Bytes.t

  (** [decode ~name codec b] is [(state, round)].
      @raise Serde.Archive.Corrupt on a different entry count or entry
      name (a bundle of another application), a truncated buffer or
      trailing bytes. *)
  val decode : name:string -> 's Serde.Codec.t -> Bytes.t -> 's * int
end

(** The per-rank checkpoint engine handed to the attempt of
    {!run_sharded}.  Valid only inside the run; [comm ctx] is the
    current (possibly shrunk) communicator. *)
type ctx

(** Raised by {!run_sharded} when the failure/recovery cycle repeated
    [max_attempts] times without the run completing. *)
exception Attempts_exhausted of { attempts : int }

(** Raised when recovery is impossible: no globally complete epoch
    survives (e.g. both members of a buddy pair died between two
    checkpoints), the survivors disagree on the recovery epoch, or a
    stored snapshot is missing state the index promised. *)
exception Unrecoverable of string

(** {b Test-only} mutation switch for the schedule-exploration harness:
    when set, schedule resolution uses the local snapshot size instead of
    the collectively agreed (allreduce-max) one, reintroducing the
    Daly-period divergence bug fixed after PR 4 so that exploration can
    demonstrate it finds it.  Never set outside tests. *)
val test_resched_local_size : bool ref

(** {1 Inspection} *)

val comm : ctx -> Kamping.Comm.t

(** [owner_of ctx shard] is the communicator rank currently owning
    [shard] (for routing cross-shard messages).
    @raise Mpisim.Errors.Usage_error if [shard] is out of range. *)
val owner_of : ctx -> int -> int

val schedule : ctx -> Schedule.t

(** [predicted_ckpt_cost ctx] is the LogGP-predicted cost of one
    checkpoint round (0. before the first checkpoint measured the
    snapshot size). *)
val predicted_ckpt_cost : ctx -> float

(** [checkpoints_taken ctx] / [recoveries ctx] count completed
    checkpoints and recovery rounds on this rank. *)
val checkpoints_taken : ctx -> int

val recoveries : ctx -> int

(** {1 Sharded applications}

    The scaffolding every restartable application shares: a per-shard
    state table checkpointed under one name, a round counter, and
    owner-routed messages between shards.  An application supplies only
    its per-shard state, its initial value, and one round of its step. *)

(** [route ctx codec msgs] delivers every [(src_shard, dst_shard,
    payload)] message to the rank owning [dst_shard]: one
    [alltoallv_serialized] round, with locally owned destinations
    short-circuited.  The result maps an owned shard to the
    [(src_shard, payload)] messages addressed to it, ordered by source
    shard and, per source, in emission order — the same order whatever
    the placement, so a recovered run delivers exactly what a
    failure-free one does.  Collective. *)
val route : ctx -> 'a Serde.Codec.t -> (int * int * 'a) list -> int -> (int * 'a) list

(** [run_sharded ~name codec ~n_shards comm ~init attempt] runs a
    round-based application over [n_shards] virtual shards under the
    recovery protocol.  Each shard's state (of type ['s], checkpointed
    as a {!Bundle} under [name]) starts as [init shard]; a shard's state
    must be mutable in place, since the same value is checkpointed after
    every round.

    Every attempt — the first and each one after a recovery — calls
    [attempt ctx shards] once with the owned [(shard, state)] list
    (ascending); it rebuilds the derived, uncheckpointed structures and
    returns the step.  The driver then calls [step ~round] with
    [round = 0, 1, ...] (resuming at the restored round after a
    recovery), checkpointing per the schedule after every round, until
    the step returns [false].  A step decides termination itself, on a
    value agreed across the communicator.  [on_complete ctx] runs after
    the last round; the result is the final owned [(shard, state)] list.
    Failures ([Process_failed] / [Comm_revoked]) striking a round, a
    checkpoint or a recovery all re-enter the same loop.

    [policy] (default [Daly]) and [failure_rate] (whole-system failures
    per simulated second, default [0.]) parameterize the schedule;
    [max_attempts] (default 8) bounds the number of recovery rounds.

    @raise Attempts_exhausted after [max_attempts] failed attempts.
    @raise Unrecoverable when no complete epoch survives or no rank
    does.
    @raise Mpisim.Errors.Usage_error on [name = "round"] (the counter's
    entry), [n_shards <= 0] or [max_attempts <= 0]. *)
val run_sharded :
  ?policy:Schedule.policy ->
  ?failure_rate:float ->
  ?max_attempts:int ->
  ?on_complete:(ctx -> unit) ->
  name:string ->
  's Serde.Codec.t ->
  n_shards:int ->
  Kamping.Comm.t ->
  init:(int -> 's) ->
  (ctx -> (int * 's) list -> round:int -> bool) ->
  (int * 's) list
