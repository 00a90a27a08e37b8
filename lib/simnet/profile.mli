(** Host-side profiler with granularity levels; zero overhead when off.

    Models the OCCAM-Nim profiler the roadmap points at (SNIPPETS.md
    Snippet 3): an enum granularity, per-operation wall-time accumulation
    with min/max, and peak-RSS tracking, all behind a single global level
    so instrumentation sites cost one immediate comparison when disabled.

    The profiler observes the {e host}: wall-clock nanoseconds and
    process RSS.  It never reads or writes simulation state, so any run
    is schedule-identical with profiling off or fine — the simulated
    clock, event counts, digests and {!Mpisim.Profiling} reports do not
    change (asserted over the whole gallery by the engine-scale tests).

    The level starts [Off]; a program that reads {!snapshot} sets it with
    {!set_level} or, scoped, {!with_level}. *)

type level =
  | Off  (** disabled — instrumentation sites cost one comparison *)
  | Coarse  (** wall-time per named operation (run loops, experiments) *)
  | Fine  (** plus event-loop counters and peak-RSS tracking *)

val current : unit -> level
val set_level : level -> unit

(** [with_level l f] runs [f] with the level set to [l], restoring the
    previous level on exit (exceptional exits included). *)
val with_level : level -> (unit -> 'a) -> 'a

(** [fine ()] is [current () = Fine]. *)
val fine : unit -> bool

(** Wall-clock nanoseconds (host time, not simulated time). *)
val now_ns : unit -> int

(** [span name f] times [f] and accumulates the span under [name] when
    the level is at least [Coarse]; when [Off] it is exactly [f ()]. *)
val span : string -> (unit -> 'a) -> 'a

(** [add_count name n] adds [n] to a [Fine]-level counter. *)
val add_count : string -> int -> unit

(** [record_max name n] raises a [Fine]-level high-water-mark counter to
    at least [n]. *)
val record_max : string -> int -> unit

(** Peak resident set size in kB (Linux [VmHWM]; 0 where unavailable). *)
val peak_rss_kb : unit -> int

type op_stats = {
  mutable calls : int;
  mutable total_ns : int;
  mutable min_ns : int;
  mutable max_ns : int;
}

type snapshot = {
  slevel : level;
  ops : (string * op_stats) list;  (** sorted by operation name *)
  counters : (string * int) list;  (** sorted by counter name *)
  rss_kb : int;  (** peak RSS at snapshot time ([Fine] only, else 0) *)
}

val snapshot : unit -> snapshot

(** [reset ()] clears accumulated spans and counters (not the level). *)
val reset : unit -> unit
