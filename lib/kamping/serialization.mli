(** Explicit serialization adapters (paper Sec. III-D3, Fig. 5).

    Heap-structured data (strings, maps, trees) cannot be described by a
    fixed-extent datatype; it must be packed into a contiguous buffer.
    Unlike Boost.MPI, serialization is never implicit: the caller opts in by
    wrapping values with {!to_wire} / unwrapping with {!of_wire} (or by
    using the [_serialized] convenience calls on [Comm]).  The pack/unpack
    CPU time is charged to the simulated clock, making the hidden cost of
    serialization visible in every benchmark.

    {2 The wire path}

    A payload is one [Bytes] archive from encode to decode: the sender
    encodes each value once, and the archive itself is the send window
    ({!to_wire}; {!to_wire_parts} encodes one part per destination back
    to back into one archive).  {!wire_datatype} holds its elements in
    [Bytes], so [Mpisim] copies the window into the message in flight and
    out into an exact-size [Bytes] receive window, one host byte per wire
    byte, and the receiver decodes each part in place from its offset in
    that window ({!of_wire}).  The archive is exactly
    [Serde.Codec.encode]'s, so {!Mpisim.Datatype.serialization_cost} and
    the simulated bytes do not depend on the path. *)

(** [to_wire codec v] is the archive of [v], ready to send as it is. *)
val to_wire : 'a Serde.Codec.t -> 'a -> Bytes.t

(** [to_wire_parts codec vs] encodes every [vs.(i)] back to back into one
    archive and returns it with the byte count of each part.  Part [i] is
    byte for byte [to_wire codec vs.(i)]. *)
val to_wire_parts : 'a Serde.Codec.t -> 'a array -> Bytes.t * int array

(** [of_wire codec buf ~pos ~len] deserializes the [len] bytes of [buf]
    starting at [pos], in place ({!Serde.Codec.decode_sub}).
    @raise Serde.Archive.Corrupt unless they hold exactly one value. *)
val of_wire : 'a Serde.Codec.t -> Bytes.t -> pos:int -> len:int -> 'a

(** [wire_datatype] is the datatype of serialized payloads. *)
val wire_datatype : (char, Bytes.t) Mpisim.Datatype.gen

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
