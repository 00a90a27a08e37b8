(** Sec. III-D4: contiguous-bytes vs. explicit-struct vs. serialized
    transfers of a gapped record. *)

val run : unit -> unit
