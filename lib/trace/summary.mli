(** Compact text rendering of an analysis {!Analysis.report}: per-rank
    time breakdown, top-k wait states, and critical-path composition. *)

(** [print report] writes the rendered report to stdout, listing the top
    five wait states. *)
val print : Analysis.report -> unit
