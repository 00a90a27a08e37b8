(** Binary min-heap priority queue keyed by [(time, sequence)] pairs.

    This is the engine's pre-refactor event queue, frozen.  It is the
    reference heap of the differential test that the calendar queue
    ([Simnet.Pqueue]) must agree with entry for entry; the live engine does not
    use it. *)

type 'a t

(** [create ()] is an empty queue. *)
val create : unit -> 'a t

(** [length q] is the number of queued entries. *)
val length : 'a t -> int

(** [is_empty q] is [length q = 0]. *)
val is_empty : 'a t -> bool

(** [push q ~time ~seq v] inserts [v] with priority [(time, seq)]. *)
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** [pop_min q] removes and returns the entry with the smallest
    [(time, seq)] key, or [None] when empty. *)
val pop_min : 'a t -> (float * int * 'a) option

(** [peek_time q] is the key time of the minimum entry, if any. *)
val peek_time : 'a t -> float option
