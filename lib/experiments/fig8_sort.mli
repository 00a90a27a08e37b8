(** Fig. 8: sample sort weak scaling across the five binding styles. *)

(** [run ()] runs the weak-scaling sweep (simulated seconds, max over
    ranks) and prints the table and the paper's shape checks. *)
val run : unit -> unit
