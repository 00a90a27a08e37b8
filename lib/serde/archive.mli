(** Low-level binary archives: a growing byte sink for serialization and a
    cursor-based source for deserialization.

    Integers use zig-zag varint coding; [int64]s and floats (their raw
    IEEE-754 bits) are 8 little-endian bytes.  The format is
    self-contained and endianness-independent. *)

(** Raised by readers on malformed or truncated input. *)
exception Corrupt of string

(** {1 Writing} *)

type writer

(** [writer ()] is an empty sink. *)
val writer : unit -> writer

(** [contents w] is everything written so far. *)
val contents : writer -> Bytes.t

(** [size w] is the number of bytes written so far. *)
val size : writer -> int

(** [build f] runs [f] on an empty writer and returns everything it wrote,
    as one exact-size archive.  The writer is a scratch shared by every
    build, so it must not escape [f]; once warm, a build allocates only the
    archive it returns.  Nested builds are safe. *)
val build : (writer -> unit) -> Bytes.t

val write_varint : writer -> int -> unit
val write_int64 : writer -> int64 -> unit
val write_float : writer -> float -> unit
val write_byte : writer -> char -> unit
val write_bool : writer -> bool -> unit
val write_string : writer -> string -> unit
val write_bytes : writer -> Bytes.t -> unit

(** {1 Reading} *)

type reader

(** [reader ~pos ~len b] starts a cursor over the [len] bytes of [b] from
    [pos]; it never reads past them, so a part of a larger buffer decodes
    in place.
    @raise Invalid_argument when the window does not lie inside [b]. *)
val reader : pos:int -> len:int -> Bytes.t -> reader

(** [reset r ~pos ~len b] makes [r] a fresh cursor over that window, as
    [reader ~pos ~len b] would, without allocating one.
    @raise Invalid_argument when the window does not lie inside [b]. *)
val reset : reader -> pos:int -> len:int -> Bytes.t -> unit

(** [remaining r] is the number of unread bytes. *)
val remaining : reader -> int

(** [at_end r] is [remaining r = 0]. *)
val at_end : reader -> bool

val read_varint : reader -> int
val read_int64 : reader -> int64
val read_float : reader -> float
val read_byte : reader -> char
val read_bool : reader -> bool
val read_string : reader -> string
val read_bytes : reader -> Bytes.t
