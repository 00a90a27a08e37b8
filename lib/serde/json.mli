(** Minimal JSON values, printer and parser — the text archive backend.

    Cereal offers binary, JSON and XML archives; this module provides the
    JSON one.  Numbers are IEEE doubles, so integers beyond 2^53 lose
    precision in the JSON archive (the binary archive is exact). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Raised by {!parse} on malformed input with a position and message. *)
exception Parse_error of int * string

(** [to_string v] prints compact JSON (escaping control characters and
    quotes).  Non-finite numbers (NaN, infinities) have no JSON form and
    print as [null]. *)
val to_string : t -> string

(** [parse s] parses one JSON value (trailing whitespace allowed). *)
val parse : string -> t

(** [equal a b] is structural equality with exact float comparison. *)
val equal : t -> t -> bool

(** [member key v] looks a field up in an object. *)
val member : string -> t -> t option
