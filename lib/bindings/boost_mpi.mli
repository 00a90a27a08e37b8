(** Style-faithful emulation of Boost.MPI (paper Sec. II).

    Captured design traits: STL-container support with automatic resizing
    (hidden allocation), results for single values, implicit serialization
    for non-MPI types on send/recv, exceptions on error — but {e no}
    [MPI_Alltoallv] binding (applications emulate irregular exchanges with
    point-to-point), and variable-size collectives require the user to
    communicate the counts first. *)

type comm

val wrap : Mpisim.Comm.t -> comm
val rank : comm -> int
val size : comm -> int

(** [all_gather comm dt v] gathers one value per rank into a fresh array
    (Boost's out-vector is always resized to fit). *)
val all_gather : comm -> 'a Mpisim.Datatype.t -> 'a -> 'a array

(** [all_gather_block comm dt block] gathers equal-size blocks. *)
val all_gather_block : comm -> 'a Mpisim.Datatype.t -> 'a array -> 'a array

(** [all_gatherv comm dt block sizes] needs user-provided per-rank sizes
    (Boost computes only the displacements). *)
val all_gatherv : comm -> 'a Mpisim.Datatype.t -> 'a array -> int array -> 'a array

(** [all_reduce comm dt op v] reduces a single value. *)
val all_reduce : comm -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> 'a -> 'a

(** [all_to_all comm dt values] exchanges one value per rank pair. *)
val all_to_all : comm -> 'a Mpisim.Datatype.t -> 'a array -> 'a array

(** [gather comm dt v root] gathers single values at the root. *)
val gather : comm -> 'a Mpisim.Datatype.t -> 'a -> int -> 'a array

(** [scatter comm dt values root] deals one value per rank. *)
val scatter : comm -> 'a Mpisim.Datatype.t -> 'a array option -> int -> 'a

(** Point-to-point with automatic sizing on the receive side (Boost sends a
    size header for container payloads). *)
val send : comm -> 'a Mpisim.Datatype.t -> 'a array -> dst:int -> tag:int -> unit

val recv : comm -> 'a Mpisim.Datatype.t -> src:int -> tag:int -> 'a array

(** [isend]/[irecv] return raw requests; no buffer safety (Sec. III-E). *)
val isend : comm -> 'a Mpisim.Datatype.t -> 'a array -> dst:int -> tag:int -> Mpisim.Request.t

val irecv : comm -> 'a Mpisim.Datatype.t -> 'a array -> src:int -> tag:int -> Mpisim.Request.t

(** [send_serialized]/[recv_serialized]: Boost's implicit serialization —
    the type signature does not reveal that serialization happens. *)
val send_serialized : comm -> 'a Serde.Codec.t -> 'a -> dst:int -> tag:int -> unit

val recv_serialized : comm -> 'a Serde.Codec.t -> src:int -> tag:int -> 'a
