(** Distributed suffix-array construction with DC3 (the DCX algorithm of
    Kärkkäinen-Sanders-Burkhardt for X = 3; paper Sec. IV-A, the
    1264-LoC-role artifact compared against pDCX). *)

(** [build comm ~text ~global_n] computes this rank's block of the suffix
    array of the block-distributed [text]. *)
val build : Kamping.Comm.t -> text:char array -> global_n:int -> int array
