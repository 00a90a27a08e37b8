(** Leveled runtime assertions (paper Sec. III-G).

    KaMPIng groups its runtime checks in levels that can be disabled
    one by one, from lightweight local checks up to assertions that issue
    {e additional communication} to verify cross-rank invariants (e.g. that
    all ranks agree on a count).  The level is a global runtime switch;
    with [Off], every check compiles down to nothing on the hot path. *)

type level =
  | Off  (** no checking at all — the zero-overhead production mode *)
  | Light  (** cheap local parameter validation *)
  | Normal  (** local validation plus invariant checks *)
  | Heavy  (** additionally run checks that require communication *)
  | Communication
      (** additionally verify cross-rank collective ordering through the
          simulator's {!Mpisim.Checker} (the full MUST-style mode) *)

(** [enabled l] is true when the current level includes [l]. *)
val enabled : level -> bool

(** [check l cond msg] raises [Errors.Usage_error msg] when level [l] is
    enabled and [cond ()] is false.  [cond] is not evaluated otherwise. *)
val check : level -> (unit -> bool) -> string -> unit

(** [heavy_check_uniform comm value ~what] verifies (with an allreduce —
    communication!) that every rank passed the same [value]; only runs at
    level [Heavy]. *)
val heavy_check_uniform : Mpisim.Comm.t -> int -> what:string -> unit

(** [with_level l f] runs [f] with the global assertion level (default
    [Light]) temporarily set to [l].  The level also drives the
    simulator-side {!Mpisim.Checker}: [Off] disables it entirely,
    [Light]/[Normal] keep its match-time error recording, [Heavy] adds
    deadlock diagnosis and leak detection, and [Communication] adds
    collective-ordering verification.

    The level is one process-wide value, not a per-rank one: wrap the
    whole [Mpi.run] in [with_level], never call it inside rank bodies.
    Ranks interleave their save and restore steps, so calls from rank
    bodies leave whichever level the last-restoring rank had saved in
    force after the run (rank 0 saves [Light] and sets [Heavy], rank 1
    saves [Heavy], rank 0 restores [Light], rank 1 restores [Heavy]). *)
val with_level : level -> (unit -> 'a) -> 'a
