(** Open-loop, heavy-tailed request streams.

    Each stream is an independent, deterministic sequence of timestamped
    key-value requests: arrivals are Poisson (exponential interarrival at
    a fixed [rate]) and keys are Zipf-distributed over [0, n_keys), the
    classic model of skewed serving traffic.  {e Open loop} means the
    arrival process never waits for the system: when the servers fall
    behind, requests queue and latency grows — exactly the regime a
    tail-latency benchmark must expose.

    Streams are generated from a SplitMix64 stream keyed by
    [(seed, stream)], so a stream's content is a pure function of its
    configuration: two ranks (or two runs, or a recovered survivor)
    constructing stream [i] draw the identical request sequence.  The
    cursor is a single integer ({!pos}/{!seek}), which is what the
    checkpoint records — recovery replays the stream to the
    checkpointed position and resumes bit-identically. *)

(** One request.  [Put d] adds [d] to the key's value — updates commute,
    so the final store contents are independent of delivery order. *)
type op = Get | Put of int

type request = { at : float;  (** arrival time, seconds from stream start *) key : int; op : op }

type t

(** [create ~n_keys ~zipf_s ~rate ~write_ratio ~seed ~stream] builds the
    stream.  [zipf_s] is the Zipf exponent ([0.] = uniform); [rate] is
    arrivals per simulated second; [write_ratio] in [0,1] is the
    probability a request is a [Put].
    @raise Mpisim.Errors.Usage_error on a non-positive [n_keys] or
    [rate], or a [write_ratio] outside [0,1]. *)
val create :
  n_keys:int -> zipf_s:float -> rate:float -> write_ratio:float -> seed:int -> stream:int -> t

(** [next_due t ~now ~limit] pops the next request with
    [at <= now && at < limit], if any.  Arrivals are monotone in [at];
    calling with growing [now] drains the backlog in order. *)
val next_due : t -> now:float -> limit:float -> request option

(** [pos t] is the stream cursor (requests popped so far); [seek t i] rewinds or
    advances the stream to position [i] by deterministic regeneration. *)
val pos : t -> int

val seek : t -> int -> unit

(** [zipf_pmf ~n_keys ~zipf_s] is the key-probability vector the stream
    samples from (exposed for tests and capacity planning). *)
val zipf_pmf : n_keys:int -> zipf_s:float -> float array
