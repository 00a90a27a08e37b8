(** Shared pieces of the size-constrained label propagation benchmark
    (paper Sec. IV-B, the dKaMinPar component): ghost-vertex bookkeeping
    and the local compute sweep.  The three variants differ only in how
    ghost labels are pulled each iteration. *)

type ghosts = {
  need : (int * int array) array;  (** (owner, my needed global ids) *)
  send_to : (int * int array) array;  (** (requester, my ids to ship) *)
  ghost_index : (int, int) Hashtbl.t;  (** global id -> ghost slot *)
  ghost_count : int;
  first_vertex : int;
}

(** [init_labels graph] starts every vertex in its own cluster. *)
val init_labels : Graphgen.Distgraph.t -> int array

(** [sweep comm graph labels ~ghost_label ~max_cluster_size] performs one
    local label-propagation pass; returns the number of changed labels. *)
val sweep :
  Mpisim.Comm.t ->
  Graphgen.Distgraph.t ->
  int array ->
  ghost_label:(int -> int) ->
  max_cluster_size:int ->
  int

(** [run comm graph ~pull ~iterations ~max_cluster_size] is the generic
    driver; [pull] refreshes the ghost label values before each sweep. *)
val run :
  Mpisim.Comm.t ->
  Graphgen.Distgraph.t ->
  pull:(Mpisim.Comm.t -> ghosts -> int array -> int array -> unit) ->
  iterations:int ->
  max_cluster_size:int ->
  int array
