(** Explicit serialization adapters (paper Sec. III-D3, Fig. 5).

    Heap-structured data (strings, maps, trees) cannot be described by a
    fixed-extent datatype; it must be packed into a contiguous buffer.
    Unlike Boost.MPI, serialization is never implicit: the caller opts in by
    wrapping values with {!to_wire} / unwrapping with {!of_wire} (or by
    using the [_serialized] convenience calls on [Comm]).  The pack/unpack
    CPU time is charged to the simulated clock, making the hidden cost of
    serialization visible in every benchmark.

    {2 The wire path}

    A payload costs one encode and one contiguous copy on each side.  The
    sender encodes each value once and copies the archive once into an
    exact-size wire buffer (a [char array] tagged {!wire_datatype};
    {!to_wire_parts} packs one part per destination back to back).  [Mpisim] carries the message as
    [Bytes] ({!Mpisim.Msg.Serialized}), and the receiver decodes each
    part in place from its offset in the receive window ({!of_wire}'s
    [pos]).  The encoded archive is exactly [Serde.Codec.encode]'s, so
    {!cost} and the simulated bytes do not depend on the path.

    This module is the one place that converts between [Bytes] and wire
    buffers; callers holding an already-encoded archive (checkpoint
    snapshots) use {!wire_of_bytes} and {!bytes_of_wire}. *)

(** [cost ~bytes] is the simulated CPU seconds to (de)serialize a payload
    of [bytes] (used by the communication wrappers). *)
val cost : bytes:int -> float

(** [to_wire codec v] serializes [v] into an exact-size wire buffer. *)
val to_wire : 'a Serde.Codec.t -> 'a -> char array

(** [to_wire_parts codec vs] serializes every [vs.(i)] back to back into
    one exact-size wire buffer and returns it with the byte count of each
    part.  Part [i] is byte for byte [to_wire codec vs.(i)]. *)
val to_wire_parts : 'a Serde.Codec.t -> 'a array -> char array * int array

(** [of_wire ?pos codec buf len] deserializes the [len] bytes of [buf]
    starting at [pos] (default 0).
    @raise Serde.Archive.Corrupt unless they hold exactly one value. *)
val of_wire : ?pos:int -> 'a Serde.Codec.t -> char array -> int -> 'a

(** [wire_of_bytes b] is the wire buffer holding the archive [b]. *)
val wire_of_bytes : Bytes.t -> char array

(** [bytes_of_wire ?pos buf len] is the archive held in the [len] bytes of
    [buf] starting at [pos] (default 0). *)
val bytes_of_wire : ?pos:int -> char array -> int -> Bytes.t

(** [wire_datatype] is the datatype of serialized payloads. *)
val wire_datatype : char Mpisim.Datatype.t

(** {1 Large counts (MPI-4 [MPI_Count])}

    Element counts beyond {!Mpisim.Datatype.max_small_count} cannot ride
    in a single [int] header field of a fixed-width wire format; these
    helpers split them into two 31-bit halves for transmission
    (the OCaml analogue of MPI-4's [MPI_Count] / big-count headers). *)

(** [encode_count c] is [[| hi; lo |]], both halves in [0, 2^31).
    @raise Mpisim.Errors.Count_overflow on a negative count. *)
val encode_count : int -> int array

(** [decode_count arr] reassembles {!encode_count}'s output.
    @raise Mpisim.Errors.Usage_error on malformed input. *)
val decode_count : int array -> int
