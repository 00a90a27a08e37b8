(** Communication-free distributed graph generators (the role KaGen — Funke
    et al. — plays in the paper's Fig. 10).

    All generators are deterministic in [(seed, global parameters)]: every
    rank recomputes exactly the slice it owns, without communication, and
    the global graph does not depend on the number of ranks.  The three
    families reproduce the locality spectrum of the paper's BFS evaluation:

    - [Erdos_renyi]: uniform random targets — no locality, small diameter;
    - [Rgg2d]: 2D random geometric — high locality, large diameter;
    - [Rhg]: power-law degrees (a Chung-Lu-style stand-in for random
      hyperbolic graphs) — skewed degrees, small diameter, mixed locality. *)

(** [erdos_renyi ~rank ~comm_size ~global_n ~avg_degree ~seed] draws
    [avg_degree] uniform out-neighbors per vertex. *)
val erdos_renyi :
  rank:int -> comm_size:int -> global_n:int -> avg_degree:int -> seed:int -> Distgraph.t

(** The generator family tags used by benchmarks. *)
type family =
  | Erdos_renyi  (** {!erdos_renyi} *)
  | Rgg2d
      (** points on the unit square (cell-major ids, so vertex blocks are
          geometric blocks), connected within the radius that yields
          [avg_degree] expected neighbors; the graph is symmetric *)
  | Rhg
      (** targets drawn with probability proportional to a power-law
          weight (w_v ~ v^-1/2, i.e. a degree exponent of 3), creating
          hub vertices *)

val family_name : family -> string

(** [generate family ~rank ~comm_size ~global_n ~avg_degree ~seed]
    dispatches on the family tag. *)
val generate :
  family -> rank:int -> comm_size:int -> global_n:int -> avg_degree:int -> seed:int -> Distgraph.t

(** [shard_slices family ~n_shards ~global_n ~avg_degree ~seed] looks up
    the [n_shards]-way slices of one graph by shard, generating each on
    first use and keeping it: a restartable application that adopts a
    shard after a failure generates only the adopted slice. *)
val shard_slices :
  family -> n_shards:int -> global_n:int -> avg_degree:int -> seed:int -> int -> Distgraph.t
