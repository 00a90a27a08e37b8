(** Communicator handles.

    A [Comm.t] is one rank's view of a communicator: the shared state (group
    and revocation flag) plus this rank's position.  Like KaMPIng's
    [Communicator] class it is a thin, copyable handle; creation and
    destruction need no collective cleanup because the simulator garbage
    collects shared state. *)

type t

(** [make world shared ~rank] wraps shared communicator state for the member
    with communicator rank [rank]. *)
val make : World.t -> World.comm_shared -> rank:int -> t

(** [world comm] is the machine this communicator lives on. *)
val world : t -> World.t

(** [shared comm] is the communicator's shared state. *)
val shared : t -> World.comm_shared

(** [rank comm] is the calling rank's position in the communicator. *)
val rank : t -> int

(** [size comm] is the number of members. *)
val size : t -> int

(** [id comm] is the communicator id (unique per world). *)
val id : t -> int

(** [world_rank_of comm r] translates a communicator rank to a world rank.
    @raise Errors.Usage_error if [r] is out of range. *)
val world_rank_of : t -> int -> int

(** [group comm] is the comm-rank to world-rank mapping (do not mutate). *)
val group : t -> int array

(** [node_of_rank comm r] is the shared-memory node hosting communicator
    rank [r] (see {!Simnet.Netmodel.node_of}; on a flat fabric every rank
    is its own node).
    @raise Errors.Usage_error if [r] is out of range. *)
val node_of_rank : t -> int -> int

(** [is_revoked comm] is the ULFM revocation flag. *)
val is_revoked : t -> bool

(** [check_active comm] raises {!Errors.Comm_revoked} if the communicator
    was revoked — called on entry of every operation. *)
val check_active : t -> unit

(** [next_collective_tag comm] allocates the internal tag for the next
    collective operation issued by this rank on this communicator.  MPI
    requires all ranks to issue collectives in the same order, so rank-local
    counters agree and successive collectives never cross-match. *)
val next_collective_tag : t -> int

(** [next_coll_index comm] numbers this rank's collective calls on this
    communicator 0, 1, ...; the k-th collective lines up across ranks, so
    the checker compares it and the tracer groups its spans by it. *)
val next_coll_index : t -> int

(** [next_shrink_epoch comm] numbers this rank's shrink calls (used to agree
    on the shrunk communicator's identity). *)
val next_shrink_epoch : t -> int

(** [next_agree_epoch comm] numbers this rank's agreement calls. *)
val next_agree_epoch : t -> int

(** [now comm] is the simulated time (convenience for applications timing
    phases). *)
val now : t -> float

(** [compute comm seconds] charges [seconds] of local computation to the
    calling fiber (advances its simulated clock). *)
val compute : t -> float -> unit

(** [compute_until comm time] charges local computation up to the absolute
    simulated [time] in one park ({!Simnet.Engine.delay_until}).
    @raise Invalid_argument if [time] is before {!now} or NaN. *)
val compute_until : t -> float -> unit
