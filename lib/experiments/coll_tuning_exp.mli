(** Collective-tuning crossover sweep: for every tuned collective, run each
    candidate algorithm pinned, over a message-size x rank-count grid, and
    compare the LogGP cost-model predictions against the simulated times.
    The table shows where the crossovers sit and that the selector's choice
    tracks the fastest simulated variant.

    A second sweep repeats the exercise on the acceptance fabric — a
    two-tier cluster of 48-rank shared-memory nodes — with the
    hierarchical candidates unlocked: every feasible variant is pinned and
    simulated, the [Topology.Autotune] pin table is installed and timed
    end-to-end, and both are compared against the flat (topology-blind)
    cost-based default. *)

(** [run ()] runs both sweeps, prints their tables, and writes
    [BENCH_collectives.json] through {!Bench_report}: the flat sweep, the
    topology sweep, and checks that the hierarchical speedup is >= 1.2x
    on bcast and allreduce, that predicted crossovers track simulated
    ones within one sweep step, and that the installed pin table
    dispatches the predicted winner. *)
val run : unit -> unit
