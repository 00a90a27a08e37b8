(** Fig. 12: fault-tolerant execution with the ULFM plugin. *)

(** [run ()] injects process faults into a compute-allreduce loop and
    reports recovery. *)
val run : unit -> unit
