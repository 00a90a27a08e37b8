(** The sharded request-serving engine (ROADMAP: "the serving scenario").

    Every rank is both a {e client} and a {e server}.  The key space is
    split into [n_shards] contiguous shards; each shard carries one
    {!Workload} stream (generated by the shard's current owner) and one
    store partition (the shard's slice of the key->counter map).  Client
    ranks drain their streams in open loop and route each request to the
    owner of its key through a {!Kamping_plugins.Aggregator} (request
    batching); servers apply the operation and answer through a second
    aggregator.  Three serving techniques are first-class knobs:

    - {b Batching} — requests and replies ship in blocks of
      [batch_threshold] items, with a time-based [flush_interval] bound
      on how long a partial block may sit ({!Kamping_plugins.Aggregator.flush}).
    - {b Replica caching} — clients keep a bounded {!Cache} of hot keys;
      get replies populate it, and owners invalidate cached copies on a
      write via a per-key sharer directory (eventual consistency).
    - {b Rebalancing} — at the phase boundary the ranks allreduce the
      per-shard request counts, deterministically compute an LPT plan
      ({!Shard_map.lpt_plan}) and migrate moving shards in the
      checkpoint's own encoding (a shard's id, store {e and} stream
      cursor travel as one value).

    Time is organized in {e epochs}: inside an epoch the engine ticks
    (poll aggregators, issue due requests, flush on the timer, advance
    simulated time); at the epoch boundary both aggregators run their
    NBX {!Kamping_plugins.Aggregator.finish}, which quiesces the system
    — every issued request has been applied and answered.  Quiescent
    boundaries are what make the engine restartable: the checkpointed
    state per shard is just (id, store contents, stream cursor), and
    {!resilient_body} runs the same loop under {!Ckpt.run_sharded}, one
    epoch per round, so a killed rank's shards are adopted and replayed
    bit-identically by the survivors.

    Because puts are commutative increments, the final store contents
    are independent of delivery order and of failures — the digest of a
    chaotic recovered run equals {!expected_store_digest}. *)

module Workload = Workload
module Shard_map = Shard_map
module Cache = Cache
module Metrics = Metrics

type config = {
  n_keys : int;
  n_shards : int;  (** also the number of request streams *)
  zipf_s : float;  (** key-popularity skew; 0. = uniform *)
  rate : float;  (** arrivals per simulated second, per stream *)
  write_ratio : float;
  duration : float;  (** open-loop horizon, simulated seconds *)
  epoch : float;  (** quiescence interval (also the checkpoint unit) *)
  tick : float;  (** polling granularity inside an epoch *)
  batch_threshold : int;  (** aggregator block size, items *)
  flush_interval : float;  (** max residence time of a partial block *)
  cache_capacity : int;  (** client cache entries; 0 = caching off *)
  rebalance : bool;  (** LPT shard migration at the phase boundary *)
  persistent : bool;
      (** run both aggregators on MPI-4 persistent channels (standing
          [recv_init] per peer, [ssend_init] for full blocks): the
          steady-state epoch exchange skips per-call validation and
          matching setup.  Purely a transport change — the report's
          [store_digest] is identical either way. *)
  seed : int;
}

(** Small defaults (256 keys, 12 shards, s = 1.2, 2 ms at 150 k req/s per
    stream) sized so a full run stays a sub-second simulation. *)
val default : config

(** What one rank reports back; merged across ranks by {!summarize}. *)
type rank_report = {
  issued : int;  (** requests popped from this rank's streams *)
  completed : int;  (** replies + cache hits processed here (final attempt) *)
  cache_hits : int;
  cache_lookups : int;
  latencies : float array;  (** arrival-to-completion, simulated seconds *)
  imbalance_before : float;  (** max/mean server load, first phase (nan in resilient mode) *)
  imbalance_after : float;  (** same, second phase *)
  recoveries : int;
  stores : (int * (int * int) list) list;  (** shard -> sorted final (key, value) *)
}

type report = {
  ranks : int;
  issued : int;
  completed : int;
  throughput : float;  (** completed / sim_time *)
  p50 : float;
  p99 : float;
  max_latency : float;
  hit_rate : float;  (** cache hits / lookups, 0. when caching is off *)
  imbalance_before : float;
  imbalance_after : float;
  recoveries : int;
  store_digest : int;
  sim_time : float;
}

(** [body cfg comm] is the plain SPMD serving session (no failures).
    Checker-clean at [Communication] level; asserts internal quiescence
    (no request left outstanding at an epoch boundary).
    @raise Mpisim.Errors.Usage_error on inconsistent configuration. *)
val body : config -> Mpisim.Comm.t -> rank_report

(** [resilient_body cfg comm] runs the same session under
    {!Ckpt.run_sharded}, one epoch per round, checkpointed per
    [policy]: kills injected by the harness trigger shrink + restore,
    survivors adopt the dead rank's shards mid-stream.  Rebalancing is disabled in
    this mode (shard placement belongs to the recovery engine);
    imbalance fields are [nan]. *)
val resilient_body :
  ?policy:Ckpt.Schedule.policy ->
  config ->
  Mpisim.Comm.t ->
  rank_report

(** [summarize ~ranks ~sim_time results] merges per-rank reports into
    one {!report}, skipping dead ranks ([Error _] entries).
    @raise Mpisim.Errors.Usage_error if the surviving stores do not
    cover every shard exactly once. *)
val summarize :
  config -> ranks:int -> sim_time:float -> (rank_report, exn) result array -> report

(** [run ?ranks cfg] = [Mpi.run] + {!body} + {!summarize}. *)
val run : ?net:Simnet.Netmodel.params -> ?ranks:int -> config -> report

(** {1 Ground truth}

    The workload is a pure function of the configuration, so the final
    store is computable without running the simulator: replay every
    stream's puts into a host-side map. *)

(** [expected_issued cfg] is the total number of requests every run of
    [cfg] issues (all streams, arrivals before [duration]). *)
val expected_issued : config -> int

(** [expected_store_digest cfg] is the oracle final store (replayed
    puts, shard by shard) folded into the deterministic integer a run
    reports as its store digest. *)
val expected_store_digest : config -> int
