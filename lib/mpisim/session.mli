(** Sessions-style isolated initialization (MPI-4 §11).

    A session is one rank's private handle for deriving communicators from
    {e named process sets}, without any collective call, shared counter
    mutation, or ordering constraint visible to other libraries on the same
    ranks.  Two libraries (say, the serving engine and the checkpoint
    engine) can each [init] their own session and build their own
    communicators over the same ranks in any relative order — the isolation
    guarantee that `MPI_COMM_WORLD`-era initialization lacks.

    Process sets are named rank groups registered in the {!World};
    ["mpi://world"] (all ranks) and ["mpi://self"] (the calling rank) are
    built in, mirroring the standard's predefined sets.

    Isolation rules:
    - communicators are memoized per (session name, process set): all
      members using the same session name obtain the {e same} communicator
      shared state, while different session names over the same set yield
      {e distinct} communicators (separate collective sequences and tag
      spaces);
    - deriving a communicator involves no communication and advances no
      counter another session can observe;
    - registering a process set is idempotent for identical membership and
      a usage error for conflicting membership. *)

type t

(** [init ?name comm] opens a session for the calling rank.  [comm] only
    supplies the world handle and the caller's identity (nothing on it is
    mutated or communicated with); [name] scopes the session — use your
    library's name. *)
val init : ?name:string -> Comm.t -> t

(** [register_pset s name ranks] names a set of world ranks. *)
val register_pset : t -> string -> int array -> unit

(** [comm_of_pset s name] derives this session's communicator over the
    named set.  A usage error when the set is unknown or the caller is not
    a member. *)
val comm_of_pset : t -> string -> Comm.t
