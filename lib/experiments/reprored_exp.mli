(** Fig. 13 / Sec. V-C: reproducible reduction — bitwise stability across
    rank counts and performance against both baselines. *)

val run : unit -> unit
