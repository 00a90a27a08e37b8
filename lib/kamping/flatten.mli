(** [with_flattened]-style utilities (paper Sec. IV-B).

    Irregular algorithms naturally build a {e mapping from destination rank
    to a message buffer} (e.g. the next BFS frontier per target rank).
    MPI's [Alltoallv] instead wants one contiguous buffer plus a counts
    array.  [flatten] performs the conversion and hands both to the caller,
    removing a recurring chunk of boilerplate. *)

type 'a flat = {
  data : 'a Ds.Vec.t;  (** all messages concatenated by ascending rank *)
  send_counts : int array;  (** elements destined for each rank *)
}

(** [flatten ~comm_size tbl] lays the per-destination buffers out
    contiguously in rank order.  Missing destinations contribute zero
    elements; destinations outside [0, comm_size) are a usage error. *)
val flatten : comm_size:int -> (int, 'a Ds.Vec.t) Hashtbl.t -> 'a flat

(** [total_count flat] sums the send counts with an explicit overflow
    check (MPI-4 large-count discipline: the total of many per-rank
    counts is the first place 32-bit counts overflow).
    @raise Mpisim.Errors.Count_overflow instead of wrapping around. *)
val total_count : 'a flat -> int
