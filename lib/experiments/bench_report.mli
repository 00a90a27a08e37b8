(** The one writer of the self-validating [BENCH_*.json] reports.

    Every failure raises [Failure] with a message that starts with the
    report's [name] and says what went wrong (an unwritable path, a file
    that does not read back, the false checks), never a bare exception. *)

(** [write ~name ~path doc] writes [doc] to [path] as JSON, re-reads the
    file, and returns the parsed value.  Fails unless the file parses back
    to [doc] exactly, with non-finite numbers read back as [null] (the
    form {!Serde.Json.to_string} gives them). *)
val write : name:string -> path:string -> Serde.Json.t -> Serde.Json.t

(** [report ~name ~path body checks] prints [checks], writes [body] (a
    JSON object without a ["checks"] key) with a ["checks"] object of the
    check results appended, through {!write}, and fails naming every
    false check.  The file is written even when a check fails. *)
val report :
  name:string -> path:string -> Serde.Json.t -> (string * bool) list -> unit
