(** The [explore] experiment: overhead smoke for the schedule-exploration
    harness (lib/explore).

    Runs the same sample-sort workload repeatedly with exploration off,
    under the [Default] strategy (decision hooks installed but answering
    0 everywhere) and under [Random] exploration, and reports the host
    wall-clock per run alongside the simulated time and event count.

    The results are written to [BENCH_explore.json] through
    {!Bench_report} with two checks, and the experiment fails naming
    each false one: [default_pure_observer] (every [Default] run has the
    simulated time and event count of the exploration-off run) and
    [random_schedules_agree] (every random schedule produces the
    [Default] result digest; the workload is schedule-independent). *)

val run : unit -> unit
