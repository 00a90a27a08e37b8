(** Latency/throughput accounting for the serving benches.

    Latencies are simulated seconds from a request's open-loop {e arrival
    time} to the moment its reply (or cache hit) is processed on the
    client — so queueing delay from an overloaded server, batching delay
    from the aggregator and network time all count, which is what makes
    the tail (p99) meaningful. *)

type t

val create : unit -> t

(** [record t l] adds one latency sample (clamped at 0). *)
val record : t -> float -> unit

(** [samples t] copies the raw samples out (for cross-rank merging). *)
val samples : t -> float array

(** [percentile samples q] with [q] in [0,1] — nearest-rank percentile of
    an unsorted sample array.  Returns [nan] on an empty array. *)
val percentile : float array -> float -> float
