(** Binary min-heap event queue keyed by [(time, sequence)] pairs.

    The dequeue order is the exact total [(time, seq)] order: events at
    the same simulated time fire in insertion order.  Push and pop are
    O(log n) over flat parallel arrays (unboxed float times), and the pop
    protocol writes into scratch cells instead of returning tuples, so
    the engine's event loop runs at a zero-alloc steady state.  The
    reference heap of the differential test is test/binheap.ml.

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
    [push q ~time:(base.(0) +. delay) ...] without boxing the sum: [base]
    is a caller-owned one-element float array (the engine's clock cell). *)
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

(** [peak q] is the occupancy high-water mark, read by the host profiler. *)
val peak : t -> int
