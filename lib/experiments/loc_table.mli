(** Table I: lines of code of the communication-specific part of each
    application per binding, measured on this repository's variant files. *)

(** [repo_root ()] locates the source tree (walks up to dune-project). *)
val repo_root : unit -> string option

(** [count_loc path] counts non-blank lines outside OCaml comments. *)
val count_loc : string -> int

(** [run ()] counts all variant files and prints the measured and the
    paper's tables plus the ordering checks. *)
val run : unit -> unit
