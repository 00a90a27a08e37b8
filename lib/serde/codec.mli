(** Composable serialization codecs (the Cereal-equivalent user API).

    A ['a t] knows how to move values of type ['a] through both archive
    backends: the exact binary archive and the textual JSON archive.  Codecs
    compose ({!pair}, {!list}, {!option}, ...) and adapt to new types via
    {!conv} — the analogue of writing a [serialize] function for a custom
    type in Cereal.

    The KaMPIng layer sends an encoded archive as it is
    ([Kamping.Serialization.to_wire]) and decodes each received part in
    place from the receive window ([of_wire], through {!decode_sub}). *)

type 'a t

(** {1 Running codecs} *)

(** [encode c v] serializes into a fresh binary buffer. *)
val encode : 'a t -> 'a -> Bytes.t

(** [decode c b] deserializes a binary buffer.
    @raise Archive.Corrupt on malformed input or trailing bytes. *)
val decode : 'a t -> Bytes.t -> 'a

(** [decode_sub c b ~pos ~len] deserializes the [len] bytes of [b] from
    [pos] in place, without copying them out.
    @raise Archive.Corrupt unless they hold exactly one value.
    @raise Invalid_argument when the window does not lie inside [b]. *)
val decode_sub : 'a t -> Bytes.t -> pos:int -> len:int -> 'a

(** [write c w v] runs the codec on an open archive (used to nest values
    into larger messages). *)
val write : 'a t -> Archive.writer -> 'a -> unit

(** [encode_json c v] / [decode_json c s] are the string-level JSON
    round-trip. *)
val encode_json : 'a t -> 'a -> string

val decode_json : 'a t -> string -> 'a

(** {1 Primitive codecs} *)

val unit : unit t
val bool : bool t
val char : char t

(** Exact in binary; via double (53-bit safe) in JSON. *)
val int : int t

val int64 : int64 t
val float : float t
val string : string t

(** {1 Combinators} *)

val option : 'a t -> 'a option t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val list : 'a t -> 'a list t

(** [array c] and [vec c] put exactly [list c]'s bytes on the wire (the
    element count as a varint, then the elements) but write and read the
    elements in place.  A count that the remaining bytes cannot hold
    raises {!Archive.Corrupt} before anything is allocated. *)
val array : 'a t -> 'a array t

val vec : 'a t -> 'a Ds.Vec.t t
val result : 'a t -> 'b t -> ('a, 'b) result t

(** [assoc v] serializes string-keyed association lists (the
    [std::unordered_map<std::string, T>] of the paper's Fig. 5). *)
val assoc : 'a t -> (string * 'a) list t

(** [hashtbl k v] serializes hash tables (iteration order is not
    preserved; the table round-trips as a set of bindings). *)
val hashtbl : 'k t -> 'v t -> ('k, 'v) Hashtbl.t t

(** [conv ~name to_repr of_repr repr_codec] derives a codec for a new type
    from an existing representation (Cereal's custom [serialize]). *)
val conv : name:string -> ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
