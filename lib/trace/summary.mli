(** Compact text rendering of an analysis {!Analysis.report}: per-rank
    time breakdown, top-k wait states, and critical-path composition. *)

(** [print ?top report] writes the rendered report to stdout; [top]
    (default 5) bounds the number of wait states listed. *)
val print : ?top:int -> Analysis.report -> unit
