(** Sec. IV-B: the dKaMinPar label-propagation component with three
    communication layers — result equality, runtime parity and LoC. *)

val run : unit -> unit
