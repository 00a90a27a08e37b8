(** Fig. 10: BFS weak scaling across graph families and frontier-exchange
    strategies. *)

val run : unit -> unit
