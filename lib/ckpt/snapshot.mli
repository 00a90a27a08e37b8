(** The wire format of one checkpoint snapshot.

    A snapshot is what one rank hands its buddy at every checkpoint: a
    self-describing header ([epoch], writer's [rank]) followed by the
    length-prefixed opaque payload (the rank's packed shard bundles).  The
    header is what recovery validates before trusting a stored copy: a
    corrupted or truncated buffer fails to decode, and a copy from the
    wrong epoch is rejected explicitly instead of silently restoring
    stale state. *)

type t = {
  epoch : int;  (** checkpoint epoch the payload belongs to *)
  rank : int;  (** world rank of the writer (stable across shrinks) *)
  payload : Bytes.t;  (** the packed shard bundles, opaque here *)
}

(** Raised by {!decode_expect} when the buffer decodes cleanly but carries
    a different epoch than the recovery protocol agreed on. *)
exception Wrong_epoch of { expected : int; got : int }

(** [encode t] serializes header and payload into one buffer (varint
    magic, epoch, rank, then the length-prefixed payload). *)
val encode : t -> Bytes.t

(** [decode b] parses a snapshot buffer.
    @raise Serde.Archive.Corrupt on a bad magic tag, negative header
    fields, a truncated buffer or trailing bytes. *)
val decode : Bytes.t -> t

(** [decode_expect ~epoch b] is {!decode} plus the epoch guard used when
    restoring an agreed epoch.
    @raise Wrong_epoch when the buffer's epoch differs from [epoch]. *)
val decode_expect : epoch:int -> Bytes.t -> t
