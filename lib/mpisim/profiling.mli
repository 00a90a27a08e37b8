(** PMPI-style profiling interface.

    Every logical MPI call entering the runtime is counted by name, along
    with per-message statistics.  The paper uses MPI's profiling interface
    to verify that KaMPIng issues {e only the expected} MPI calls when it
    computes default parameters internally (Sec. III-H); our test suite does
    the same with this module. *)

type t

(** A snapshot of the counters at one point in time. *)
type snapshot = {
  calls : (string * int) list;  (** logical MPI calls by name, sorted *)
  algo_calls : (string * int) list;
      (** per-call collective-algorithm choices, recorded as annotated
          names like ["MPI_Allreduce[rabenseifner]"]; kept out of [calls]
          so the plain-call counts retain their PMPI meaning *)
  messages : int;  (** point-to-point messages transferred *)
  bytes : int;  (** payload bytes transferred *)
}

(** [create ()] is a fresh counter set. *)
val create : unit -> t

(** [record_call t name] counts one logical MPI call. *)
val record_call : t -> string -> unit

(** [record_algo t name] counts one collective-algorithm choice under its
    annotated name (e.g. ["MPI_Bcast[binomial]"]). *)
val record_algo : t -> string -> unit

(** [record_message t ~bytes] counts one wire message. *)
val record_message : t -> bytes:int -> unit

(** [snapshot t] reads the counters. *)
val snapshot : t -> snapshot

(** [reset t] zeroes all counters. *)
val reset : t -> unit

(** [calls_of name s] is the count for a given call name in a snapshot;
    annotated algorithm names are looked up transparently. *)
val calls_of : string -> snapshot -> int

(** [algo_calls_of name s] is the count for an annotated algorithm name. *)
val algo_calls_of : string -> snapshot -> int

(** [diff ~before ~after] subtracts two snapshots counter-wise. *)
val diff : before:snapshot -> after:snapshot -> snapshot
