(** The [engine] experiment: scale and overhead of the simulator core.

    Runs a synthetic halo-exchange workload on {!Simnet.Engine} and
    gates its events/sec at p=4096 against an absolute floor; sweeps
    events/sec across rank counts up to p=16384 (throughput must stay
    roughly flat despite the event heap's O(log p) slope); asserts the
    pooled event loop's minor-heap cost per event stays under a small
    constant ([Gc.minor_words]-measured); and measures a gallery subset
    with the host profiler off vs fine, requiring bit-identical digests,
    event counts and simulated times (the profiler is a pure observer).

    Results go to [BENCH_engine.json] through {!Bench_report}: every
    entry of its [checks] object must be true, otherwise the experiment
    fails. *)

val run : unit -> unit
