(** Calendar event queue keyed by [(time, sequence)] pairs.

    Drop-in successor of the binary-heap queue (kept as test/binheap.ml,
    the reference of the differential test):
    the dequeue order is the exact total [(time, seq)] order — events at
    the same simulated time fire in insertion order — so every schedule
    the old heap produced replays bit-identically.  Internally it is a
    Brown-style calendar queue tuned for the engine's mostly-monotone
    event stream: O(1) amortized push and pop, structure-of-arrays
    buckets with unboxed float keys, and an allocation-free pop protocol
    (scratch cells instead of result tuples) so the engine's event loop
    runs at a zero-alloc steady state.

    Exactness under floating point is guaranteed by storing each entry's
    integer virtual bucket index at push time and comparing only those
    integers during the dequeue scan — no entry time is ever compared
    against a computed bucket boundary (see the implementation header).

    Invariant: pushed times must be [>= ] the last popped time (the
    simulation clock).  The engine guarantees this by construction;
    violations raise [Invalid_argument]. *)

type t

(** Events are thunks; the [owner] tag rides along for the engine's
    chooser (see {!Engine.set_chooser}). *)
type event = unit -> unit

(** [create ()] is an empty queue. *)
val create : unit -> t

(** [length q] is the number of queued entries. *)
val length : t -> int

(** [is_empty q] is [length q = 0]. *)
val is_empty : t -> bool

(** [push q ~time ~seq ~owner f] inserts [f] with priority [(time, seq)].
    @raise Invalid_argument if [time] precedes the last popped time. *)
val push : t -> time:float -> seq:int -> owner:int -> event -> unit

(** [push_after q ~base ~delay ~seq ~owner f] is
    [push q ~time:(base.(0) +. delay) ...] without materializing a boxed
    float for the sum: [base] is a caller-owned one-element flat array
    (the engine's clock cell).  This keeps the schedule-from-within-an-
    event hot path allocation-free. *)
val push_after :
  t -> base:float array -> delay:float -> seq:int -> owner:int -> event -> unit

(** {1 Allocation-free pop protocol}

    [pop q] dequeues the minimum entry into scratch cells and returns
    [false] when empty.  The [popped_*] accessors read the scratch cells
    and are only meaningful after a [pop] that returned [true]; they stay
    valid until the next [pop]. *)

val pop : t -> bool

val popped_seq : t -> int
val popped_owner : t -> int
val popped_event : t -> event

(** [popped_time q] boxes the popped time — fine off the hot path. *)
val popped_time : t -> float

(** [popped_time_beyond q limit] is [popped_time q > limit] without
    boxing (the engine's deadline check). *)
val popped_time_beyond : t -> float -> bool

(** [write_popped_time q cell] stores the popped time into [cell.(0)]
    without boxing (the engine's clock advance). *)
val write_popped_time : t -> float array -> unit

(** {1 Convenience (allocating) interface} *)

(** [pop_min q] removes and returns the entry with the smallest
    [(time, seq)] key as [(time, seq, owner, event)], or [None]. *)
val pop_min : t -> (float * int * int * event) option

(** [peek_time q] is the key time of the minimum entry, if any. *)
val peek_time : t -> float option

(** [stats q] is [(peak_length, resizes, direct_searches)] — occupancy
    high-water mark and calendar maintenance counters, read by the host
    profiler and the engine bench. *)
val stats : t -> int * int * int
