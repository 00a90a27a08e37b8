(** Streaming windowed analytics over the message aggregator.

    Deterministic per-shard event streams (key/value pairs hashed from
    the seed) are routed by key to owner shards through
    {!Kamping_plugins.Aggregator} — batched by threshold, with a
    time-based {!Kamping_plugins.Aggregator.flush} bounding latency —
    and folded into tumbling windows.  Each window closes with NBX
    termination ([finish]), computes per-shard top-k candidates and
    count-distinct, and merges them globally (sorted by shard), so every
    rank holds the same window results and the whole pipeline is
    integral: independent of rank count and schedule, and equal to the
    sequential {!reference}.

    {!resilient} runs the same pipeline on {!Ckpt.run_sharded}, one
    window per round: the stream position is the checkpointed state,
    taken at window boundaries; a mid-window failure replays the window
    from its deterministic source streams and recovers bit-identically. *)

type cfg = {
  n_shards : int;  (** virtual shards (sources and owners) *)
  windows : int;  (** number of tumbling windows *)
  events_per_shard : int;  (** events per source shard per window *)
  n_keys : int;  (** key space, <= 65536 *)
  n_values : int;  (** value space, <= 65536 *)
  topk : int;
  threshold : int;  (** aggregator block threshold *)
  flush_every : float;  (** simulated seconds between time-based flushes *)
  seed : int;
}

type window_result = {
  top : (int * int) list;  (** (key, count), count desc then key asc *)
  distinct : int;  (** distinct values across the window *)
}

(** [run kc cfg] processes all windows and returns the per-window
    results (identical on every rank).  Collective. *)
val run : Kamping.Comm.t -> cfg -> window_result array

(** [resilient ?policy kc cfg] is the checkpointed variant; survivors
    adopt orphaned shards and the result is bitwise equal to a
    failure-free {!run}. *)
val resilient :
  ?policy:Ckpt.Schedule.policy ->
  Kamping.Comm.t ->
  cfg ->
  window_result array

(** [reference cfg] is the sequential host-side oracle. *)
val reference : cfg -> window_result array
