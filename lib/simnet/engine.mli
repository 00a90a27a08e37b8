(** Discrete-event simulation engine with cooperative fibers.

    Every simulated MPI rank runs as a fiber (an effects-based cooperative
    thread).  Fibers advance a shared simulated clock by issuing {!delay}
    (modelling local computation or transfer costs) and block on external
    events with {!suspend} (modelling a blocking receive).  Events scheduled
    for the same simulated time fire in scheduling order, so a run is fully
    deterministic.

    If the event queue drains while fibers are still parked, {!run} raises
    {!Deadlock} listing the parked fibers — the simulator's equivalent of a
    hung MPI job, and a debugging aid the paper lists as a desired feature
    ("a strong debug mode"). *)

type t
type fiber

(** Raised inside a fiber that was killed via {!kill} (used for failure
    injection by the ULFM layer). *)
exception Killed

(** Raised by {!run} when no event is pending but fibers are parked.
    Carries the labels of the parked fibers. *)
exception Deadlock of string list

(** Raised by {!run} when the simulated clock passes the {!set_deadline}
    deadline — the watchdog that turns a runaway schedule into a
    diagnosable failure instead of a hung test run. *)
exception Limit_exceeded of { time : float; events : int }

(** [create ()] is a fresh engine with clock 0. *)
val create : unit -> t

(** [now t] is the current simulated time in seconds. *)
val now : t -> float

(** [events_processed t] counts events executed so far (a determinism and
    progress diagnostic). *)
val events_processed : t -> int

(** [live_fibers t] counts fibers currently running or parked. *)
val live_fibers : t -> int

(** [tracked_fibers t] is the size of the internal fiber table.  Finished
    fibers are pruned once they dominate the table, so this stays within a
    small constant factor of {!live_fibers} (the scale tests assert it) —
    the pre-refactor engine kept every fiber ever spawned. *)
val tracked_fibers : t -> int

(** [schedule t ~delay f] runs callback [f] at time [now t +. delay].
    Unlike a fiber, a callback must not block. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** {1 Reserved event slots}

    A completion that nobody may wait on need not cost an event.  Its
    producer {!reserve}s the [(time, seq)] key the event would have had
    and pushes nothing.  A reader asks whether the key has {!passed}: if
    so, the event would already have fired and the reader applies its
    effect itself.  A fiber that is about to block on it pushes the event
    into its reserved slot ({!push_reserved}) first.  Same-time order,
    the seq counter and every simulated value therefore match a run that
    scheduled the event eagerly; only the events nobody observed are
    missing, and {!elided} counts them.

    A slot's time travels as its IEEE bits in an immediate int (times are
    non-negative, so the sign bit is dropped), so a holder stores the key
    without boxing a float.  Treat the bits as opaque. *)

(** [reserve t ~at] reserves the slot [schedule t ~delay:(at -. now t)]
    would push into: it takes the next seq and pushes nothing.  It
    returns the slot's time bits; the slot's time is
    [now t +. (at -. now t)], bit for bit the float that push would
    compute (not always [at]).  {!reserved_seq} is the slot's seq.
    After the queue drains, {!run} moves the clock to the latest
    reserved time if it is later, and a reserved time past the
    {!set_deadline} deadline raises {!Limit_exceeded} as its event
    would have.
    @raise Invalid_argument if [at] is before {!now}. *)
val reserve : t -> at:float -> int

(** [reserved_seq t] is the seq of the latest {!reserve}. *)
val reserved_seq : t -> int

(** [passed t ~time_bits ~seq] is true iff the event at that key would
    already have fired: its time is before {!now}, or equal to it with a
    seq below the executing event's.  Outside {!run} the executing seq is
    [max_int], so every key up to {!now} has passed. *)
val passed : t -> time_bits:int -> seq:int -> bool

(** [push_reserved t ~time_bits ~seq f] pushes callback [f] into a
    reserved slot that has not {!passed} (owner [-1], as {!schedule}).
    A slot is pushed at most once. *)
val push_reserved : t -> time_bits:int -> seq:int -> (unit -> unit) -> unit

(** [elided t] counts reservations never pushed: the events this engine
    saved over eager scheduling.  [events_processed t + elided t] is the
    event count of the same run with every reservation pushed. *)
val elided : t -> int

(** [exploring t] is true while a {{!set_chooser} chooser} is installed.
    Producers then schedule eagerly instead of reserving, so ready sets
    and explored interleavings keep every event. *)
val exploring : t -> bool

(** [spawn t ~label ~tag f] creates a fiber executing [f], starting at the
    current simulated time.  An exception escaping [f] (other than {!Killed})
    propagates out of {!run}.  [tag] (default [-1]) is an opaque integer
    reported to the {{!set_park_observer} park observer}; the MPI layer tags
    rank fibers with their world rank and leaves helpers at [-1]. *)
val spawn : t -> ?label:string -> ?tag:int -> (unit -> unit) -> fiber

(** [kill t fiber] marks [fiber] dead: its next resumption raises {!Killed}
    inside it.  A parked fiber stays parked until something resumes it (the
    MPI layer fails parked operations explicitly on failure injection). *)
val kill : t -> fiber -> unit

(** [alive fiber] is false once the fiber finished or was killed. *)
val alive : fiber -> bool

(** [is_parked fiber] is true while the fiber is suspended waiting for an
    external event — at quiesce time, the parked fibers are the deadlocked
    ones (used by the MPI layer's deadlock diagnosis). *)
val is_parked : fiber -> bool

(** [run t] executes events until the queue is empty.
    @raise Deadlock if fibers remain parked with no pending event. *)
val run : t -> unit

(** {1 Observation}

    A park observer sees every fiber suspension interval: it fires at the
    moment a parked fiber resumes, with the park time, resume time, the
    fiber's spawn [tag], and whether the park was a {!delay} (modelled
    computation) or a {!suspend} (a genuine wait for an external event).
    Observation is passive — it cannot alter scheduling, and costs one
    option check per resumption when disabled.  Used by the tracing
    subsystem to attribute waiting time to ranks. *)

type park_kind =
  | Park_delay
      (** the fiber was advancing its own clock via [delay] or
          [delay_until] *)
  | Park_suspend  (** the fiber was blocked on an external event *)

type park_observer =
  tag:int -> kind:park_kind -> parked_at:float -> resumed_at:float -> unit

(** [set_park_observer t (Some f)] installs [f]; [None] removes it. *)
val set_park_observer : t -> park_observer option -> unit

(** {1 Schedule exploration}

    Events scheduled for the same simulated time form a {e ready set}: MPI
    semantics permit any of them to run next, and the incumbent engine
    always runs them in scheduling (seq) order.  A {e chooser} intercepts
    exactly these don't-care points — same-time event order ([Ready]),
    wildcard-receive message matching ([Match]), completion order among
    simultaneously ready requests ([Completion]), and chaos-layer draws
    ([Chaos]) — and picks one candidate by index.  A chooser that always
    answers [0] reproduces the incumbent schedule bit-identically, which is
    what makes exploration a pure observer in its default strategy. *)

type decision_kind =
  | Ready  (** which same-time event fires next *)
  | Match  (** which source a wildcard receive matches *)
  | Completion  (** which complete request a wait-any observes *)
  | Chaos  (** latency-jitter / kill-time draws of the chaos layer *)

(** A chooser receives the candidate identifiers (fiber tags for [Ready],
    source ranks for [Match], request indices for [Completion]) and returns
    the index of its pick.  Out-of-range answers are clamped. *)
type chooser = kind:decision_kind -> ids:int array -> int

(** [set_chooser t (Some c)] routes every nondeterminism point through [c];
    [None] (the default) keeps the incumbent deterministic schedule with no
    ready-set bookkeeping at all. *)
val set_chooser : t -> chooser option -> unit

(** [choose t ~kind ~ids] consults the installed chooser; with no chooser
    or fewer than two candidates it returns [0].  Subsystems with their own
    nondeterminism points ([Match], [Completion]) call this directly. *)
val choose : t -> kind:decision_kind -> ids:int array -> int

(** [set_deadline t d] makes {!run} raise {!Limit_exceeded} when the
    simulated clock passes [d] seconds (default: no deadline). *)
val set_deadline : t -> float -> unit

(** {1 Fiber-side operations}

    These must be called from inside a fiber spawned on the engine. *)

(** [delay t dt] advances this fiber's time by [dt] simulated seconds,
    yielding to other events in between. *)
val delay : t -> float -> unit

(** [delay_until t time] parks this fiber until the absolute simulated
    [time], yielding to other events in between.  The wake-up is exactly
    [time], bit for bit, so a caller that folds [n] relative costs from
    {!now} in the order [n] sequential {!delay} calls would add them ends
    at the same float with one event instead of [n].  The park observer
    sees it as [Park_delay].
    @raise Invalid_argument if [time] is before {!now} or NaN. *)
val delay_until : t -> float -> unit

(** A one-shot handle used to wake a suspended fiber. *)
type 'a resumer

(** [suspend t register] parks the calling fiber and passes a {!resumer} to
    [register]; the fiber resumes when {!resume} or {!fail} is invoked on
    it.  The registered resumer must be triggered at most once; later
    triggers are ignored. *)
val suspend : t -> ('a resumer -> unit) -> 'a

(** [resume r v] wakes the suspended fiber with value [v] at the current
    simulated time. *)
val resume : 'a resumer -> 'a -> unit

(** [fail r exn] wakes the suspended fiber by raising [exn] at its suspension
    point. *)
val fail : 'a resumer -> exn -> unit
