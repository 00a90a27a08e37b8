(** The catalogue of tuned collective algorithms.

    Each major collective has at least two interchangeable algorithms; the
    runtime bodies live in [Mpisim.Coll_impl] (they need point-to-point
    messaging), while this module only names the candidates so the cost
    model and the selection engine can reason about them without depending
    on the MPI layer. *)

(** Broadcast. *)
type bcast =
  | Bcast_binomial  (** binomial tree: [ceil(log2 p)] full-size messages *)
  | Bcast_scatter_allgather
      (** van de Geijn: binomial scatter + ring allgather; bandwidth-optimal
          for large payloads *)
  | Bcast_node_leader
      (** hierarchical: binomial bcast over node leaders, then binomial
          bcast within each node; wins when inter-node latency dominates *)

(** Allreduce. *)
type allreduce =
  | Ar_reduce_bcast  (** binomial reduce to rank 0 + binomial bcast *)
  | Ar_recursive_doubling  (** latency-optimal: [ceil(log2 p)] exchanges *)
  | Ar_rabenseifner
      (** recursive-halving reduce-scatter + recursive-doubling allgather;
          bandwidth- and compute-optimal for large payloads *)
  | Ar_ring  (** ring reduce-scatter + ring allgather; linear startups *)
  | Ar_node_leader
      (** hierarchical: intra-node binomial reduce, inter-leader
          recursive doubling, intra-node binomial bcast *)

(** Allgather. *)
type allgather =
  | Ag_bruck  (** logarithmic rounds for arbitrary [p] *)
  | Ag_ring  (** [p - 1] neighbour rounds, optimal volume *)
  | Ag_recursive_doubling
      (** [log2 p] exchanges of doubling ranges; the selector offers it on
          power-of-two [p] only.  Runs the {!Agv_recursive_doubling} body
          on the uniform layout. *)

(** Allgatherv: one block per rank, of per-rank counts.  The ring sends
    every block, empty ones included; recursive doubling skips zero-count
    messages. *)
type allgatherv =
  | Agv_ring  (** [p - 1] neighbour rounds of one block each, optimal volume *)
  | Agv_recursive_doubling
      (** [log2 pof2] exchanges of doubling rank ranges, where [pof2] is
          the largest power of two [<= p]; for other [p] the even ranks
          below [2 (p - pof2)] first fold their block into their odd
          neighbour and get the assembled vector back at the end *)

(** Alltoall. *)
type alltoall =
  | A2a_pairwise
      (** post-all linear exchange: O(p) startups, one wire latency *)
  | A2a_bruck  (** [ceil(log2 p)] rounds of aggregated blocks *)
  | A2a_smp
      (** SMP-aware: direct exchange within each node, leader-aggregated
          bundles between nodes; trades memcpy for fewer wire startups *)
  | A2a_hypergrid
      (** d-phase coordinate-fixing routing over a near-square process
          grid (the paper's grid all-to-all, Fig. 9) *)

val bcast_name : bcast -> string
val allreduce_name : allreduce -> string
val allgather_name : allgather -> string
val allgatherv_name : allgatherv -> string
val alltoall_name : alltoall -> string
val bcast_of_name : string -> bcast option
val allreduce_of_name : string -> allreduce option
val allgather_of_name : string -> allgather option
val allgatherv_of_name : string -> allgatherv option
val alltoall_of_name : string -> alltoall option

(** Candidate lists, incumbent (pre-subsystem default) first: ties in
    predicted cost keep today's behavior. *)

val all_bcast : bcast list

val all_allreduce : allreduce list
val all_allgather : allgather list
val all_allgatherv : allgatherv list
val all_alltoall : alltoall list
