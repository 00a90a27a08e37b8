(** Schedule exploration and chaos testing for the simulated MPI runtime.

    Every run of the simulator is deterministic, but many of its decisions
    are {e don't-cares} under MPI semantics: the order in which same-time
    events fire, which source a wildcard receive matches, which of several
    complete requests a wait-any observes.  This subsystem drives
    {!Simnet.Engine} through pluggable strategies that systematically vary
    exactly those decisions — and nothing else — so schedule-dependent
    bugs (wildcard races, completion-order assumptions, recovery
    interleavings) surface in tests instead of production.

    Every explored run executes under the {!Mpisim.Checker} and captures a
    compact {e replay token} (strategy + chaos config + decision trace).
    On failure, a greedy shrinker minimizes the decision trace and the
    counterexample can be replayed exactly or dumped as a Chrome trace for
    postmortem.

    Activation for a whole test binary:
    [MPISIM_EXPLORE=random:42 dune runtest]. *)

(** {1 Strategies} *)

type strategy =
  | Default
      (** bit-identical to the incumbent schedule: every decision answers
          0 — a pure observer that exercises the exploration machinery *)
  | Random of { seed : int }
      (** uniformly random pick at every decision point (same-time ready
          sets, wildcard matching, completion order, chaos draws) *)
  | Pct of { seed : int; depth : int }
      (** probabilistic concurrency testing: random per-owner priorities;
          the highest-priority ready owner runs; with probability
          [depth/1000] per decision the winner is demoted below everyone,
          giving [depth] priority-change points per 1000 decisions in
          expectation *)
  | Delay of { seed : int; budget : int }
      (** incumbent schedule with up to [budget] injected delays: at a
          chosen decision point the next event is postponed behind a
          random other ready event *)

(** {1 Chaos layer}

    Composable with any strategy: latency jitter perturbs message arrival
    times (per-pair FIFO order is preserved), kills inject deterministic
    [?fail_at]-style process failures at a bucketed random point inside
    each given window.  Both consume decisions from the same recorded
    trace, so chaotic runs replay and shrink like any other. *)

type chaos = {
  jitter : float;  (** max extra delivery latency in seconds; [0.] = off *)
  jitter_buckets : int;  (** granularity of each jitter draw *)
  kills : (int * float * float) list;
      (** [(world_rank, lo, hi)]: kill the rank once, inside the window *)
  kill_buckets : int;  (** granularity of each kill-time draw *)
}

val no_chaos : chaos

(** {1 Replay tokens} *)

type token = { strategy : strategy; chaos : chaos; trace : int array }

(** Printable round-trip encoding (floats in hex, so exact):
    [explore{random:42|jitter=0x0p+0/8|kills=/16|trace=1,0,2}]. *)
val token_to_string : token -> string

(** Inverse of {!token_to_string}.  @raise Failure on malformed input. *)
val token_of_string : string -> token

val strategy_to_string : strategy -> string

(** Parses ["default"], ["random:SEED"], ["pct:SEED:DEPTH"],
    ["delay:SEED:BUDGET"] (seed-only short forms allowed).
    @raise Failure on malformed input. *)
val strategy_of_string : string -> strategy

(** {1 Running one schedule} *)

type 'a outcome =
  | Finished of 'a Mpisim.Mpi.run_result
  | Crashed of exn
      (** the run raised — e.g. {!Simnet.Engine.Deadlock} below checker
          level Heavy, or {!Simnet.Engine.Limit_exceeded} from the
          watchdog *)

type 'a observed = { outcome : 'a outcome; token : token }

(** [run ~strategy ~chaos ~ranks f] executes the SPMD program [f] under
    one explored schedule on the default network, with the checker at
    [Communication] and the simulated-time watchdog at 3600 simulated
    seconds.
    [replay] overrides the strategy's decisions with a recorded trace
    (out-of-range or exhausted entries fall back to 0). *)
val run :
  ?strategy:strategy ->
  ?chaos:chaos ->
  ?replay:int array ->
  ranks:int ->
  (Mpisim.Comm.t -> 'a) ->
  'a observed

(** [replay token ~ranks f] re-executes the exact schedule captured in
    [token], with {!run}'s default network, checker level and deadline. *)
val replay : token -> ranks:int -> (Mpisim.Comm.t -> 'a) -> 'a observed

(** The token of the most recent {!run} (or {!replay}) — lets a failing
    property-based test print how to reproduce its last schedule. *)
val last_token : unit -> token option

(** {1 Verdicts} *)

type verdict =
  | Pass of string  (** digest of the per-rank results, for cross-schedule comparison *)
  | Fail of string  (** reason: crash, checker diagnostics, or rank errors *)

(** The default judgement: [Fail] on crash, on any checker diagnostic, or
    on any per-rank error; otherwise [Pass] with a digest of the marshaled
    per-rank results (["<opaque>"] when unmarshalable). *)
val verdict_of : 'a observed -> verdict

(** {1 Exploration and shrinking} *)

type counterexample = {
  ce_token : token;  (** minimized, replayable *)
  ce_reason : string;
  ce_schedule : int;  (** which schedule failed: 0 = reference, i = i-th random *)
  ce_decisions : int;  (** length of the minimized decision trace *)
  ce_chrome : string option;  (** path of the dumped Chrome trace, if produced *)
}

(** [explore ~schedules ~seed ~chaos ~ranks f] runs [f] once under
    [Default] (the reference), then under [schedules] random schedules
    with decorrelated seeds.  A run fails when [verdict] says [Fail] or
    its [Pass] digest differs from the reference's.  The first failure is
    shrunk with {!shrink_trace} (replaying the workload under candidate
    traces), dumped as a Chrome trace (unless [dump:false]), and returned;
    [Ok n] means all [n] schedules agreed with the reference and were
    clean. *)
val explore :
  ?schedules:int ->
  ?seed:int ->
  ?chaos:chaos ->
  ?verdict:('a observed -> verdict) ->
  ?dump:bool ->
  ranks:int ->
  (Mpisim.Comm.t -> 'a) ->
  (int, counterexample) result

(** [shrink_trace ~fails trace] greedily minimizes a failing decision
    trace: zero aligned chunks (halving sizes down to single decisions,
    at most 300 re-executions of [fails]), keep each candidate on
    which the failure persists, then trim trailing zeros (replay pads
    with 0).  Entries are positional, so zeroing — never deletion — is
    the sound reduction. *)
val shrink_trace : fails:(int array -> bool) -> int array -> int array

(** {1 Scoped activation}

    For code that calls [Mpisim.Mpi.run] itself (e.g. the gallery
    examples): every run started inside the scope picks up the session's
    hooks via {!Mpisim.Exhook.factory}.  Decisions are shared across the
    runs in one scope, so a scope replays as a unit. *)

(** [with_strategy ~strategy f] runs [f] with exploration active and no
    chaos, and returns [f ()]'s result together with the captured token. *)
val with_strategy : strategy:strategy -> (unit -> 'a) -> 'a * token

(** [unexplored f] runs [f] with exploration forced off, even under
    [MPISIM_EXPLORE] — for tests asserting incumbent-schedule behaviour. *)
val unexplored : (unit -> 'a) -> 'a

(** {1 Environment}

    [MPISIM_EXPLORE] is read at module initialization; e.g. [random:42],
    [pct:7:5], [delay:3:16], [default].  When set, every [Mpi.run] in the
    process uses a fresh same-seeded session (keeping paired-run
    comparisons within one test valid) unless overridden by an explicit
    scope. *)
