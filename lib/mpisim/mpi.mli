(** SPMD entry point: run one program on every rank of a simulated machine.

    [run ~ranks f] spawns [ranks] fibers, each executing [f comm] with its
    own view of the world communicator, runs the discrete-event simulation
    to completion, and reports per-rank results, the total simulated time,
    and the PMPI-style profile of every MPI call issued. *)

(** Raised in a result slot when the rank's fiber never finished (e.g. it
    was killed by failure injection before producing a value). *)
exception Rank_died

type 'a run_result = {
  results : ('a, exn) result array;  (** per-rank outcome *)
  sim_time : float;  (** simulated seconds until the last event *)
  profile : Profiling.snapshot;  (** all MPI calls, messages and bytes *)
  events : int;  (** discrete events processed (determinism diagnostic) *)
  elided : int;
      (** send completions that took a reserved slot no fiber waited on
          ({!Simnet.Engine.elided}); [events + elided] is the event count
          with eager completions, which a run under an exploration chooser
          keeps *)
  diagnostics : Checker.diagnostic list;
      (** correctness findings (deadlock, collective mismatch, leaks, ...)
          recorded by {!Checker} at the current checking level *)
  trace : Trace.Event.data option;
      (** the recorded event trace when the run was traced, else [None];
          feed it to {!Trace.Analysis.analyze} or {!Trace.Chrome.to_json} *)
}

(** [run ?net ?fabric ?fail_at ?trace ~ranks f] executes the SPMD program.

    @param net parameters of the flat network model (default
    {!Simnet.Netmodel.default}), used when no fabric is in force
    @param fabric a tiered fabric ({!Simnet.Netmodel.fabric}, e.g.
    [Simnet.Netmodel.two_tier ~node_size:8 ~ranks ()]).  When none is
    given, the [MPISIM_TOPOLOGY] environment variable (read per run; a
    {!Simnet.Netmodel.fabric_of_spec} spec such as ["two:48"] or
    ["fat:48:4:8"]) supplies one — unset or empty keeps the flat model,
    replaying every pre-topology schedule bit-identically
    @param fail_at [(world_rank, time)] deterministic time-based failure
    schedule, armed via {!Ulfm.schedule_failures} (validated up front)
    @param trace record an event trace of the run (default: the
    [MPISIM_TRACE] environment toggle, see {!Trace.Recorder.default_enabled});
    tracing is a pure observer — it changes no timing, event count or profile
    @param hooks schedule-exploration hooks routing every nondeterminism
    point (same-time ready sets, wildcard matching, completion order,
    chaos draws) through a decision procedure; default: whatever
    {!Exhook.factory} returns (set by [lib/explore] under [MPISIM_EXPLORE],
    [None] otherwise — the incumbent deterministic schedule)
    @param deadline simulated-time watchdog: the run raises
    {!Simnet.Engine.Limit_exceeded} once the clock passes this many
    simulated seconds (default: none) — turns livelocks into diagnosable
    failures
    @raise Simnet.Engine.Deadlock if the program hangs and the checker level
    is below [Heavy]; at [Heavy] and above the run instead terminates
    normally with a structured {!Checker.Deadlock_cycle} diagnostic (hung
    ranks report [Rank_died] in [results]) *)
val run :
  ?net:Simnet.Netmodel.params ->
  ?fabric:Simnet.Netmodel.fabric ->
  ?fail_at:(int * float) list ->
  ?trace:bool ->
  ?hooks:Exhook.t ->
  ?deadline:float ->
  ranks:int ->
  (Comm.t -> 'a) ->
  'a run_result

(** [run_exn ~ranks f] is {!run} on the default network but unwraps the
    per-rank results, re-raising the first rank failure. *)
val run_exn : ranks:int -> (Comm.t -> 'a) -> 'a array

(** [results_exn r] unwraps [r.results], re-raising the first failure. *)
val results_exn : 'a run_result -> 'a array

(** {1 Run observation}

    A monomorphic digest of a run, teed to {!with_run_collector} — lets a
    test harness compare observable run behaviour (time, event count,
    profile, checker findings) across configurations for programs whose
    ['a run_result] types differ. *)

type run_summary = {
  rs_sim_time : float;
  rs_events : int;
  rs_profile : Profiling.snapshot;
  rs_diagnostics : Checker.diagnostic list;
      (** every checker finding of the run, as in [run_result.diagnostics] *)
}

(** [with_run_collector f] runs [f] while collecting a {!run_summary} for
    every {!run} that ends inside it, in order.  A run that ends by raising
    out of {!run} (e.g. {!Simnet.Engine.Deadlock} below [Heavy]) is
    collected too, with what it recorded up to the exception.  Nested
    collectors each see every run inside them. *)
val with_run_collector : (unit -> 'a) -> 'a * run_summary list
