(** Calibrated local-computation costs.

    The simulator charges CPU time explicitly ({!Comm.compute}); these
    helpers centralize the constants so applications and plugins charge
    consistent, realistic costs for their sequential work (a ~3 GHz core
    touching cached data). *)

(** [sort n] — comparison sort of [n] elements, [O(n log n)]. *)
val sort : int -> float

(** [linear n] — one pass over [n] elements (bucketing, partitioning,
    counting). *)
val linear : int -> float

(** [hash_ops n] — [n] hash-table operations. *)
val hash_ops : int -> float

(** [per_edge m] — scanning [m] graph edges. *)
val per_edge : int -> float
