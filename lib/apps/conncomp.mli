(** Distributed connected components by min-label propagation.

    The directed edge set is symmetrized once at setup (a reversal-edge
    exchange through the same {!Gexchange} variant used for the
    iterations), then every round each vertex offers its current label
    to all undirected neighbors until a fixpoint; a vertex ends up
    labeled with the smallest vertex id of its (weakly) connected
    component.  Min is idempotent and commutative, so the result is
    independent of rank count, exchange variant, and schedule. *)

(** [run ?variant kc graph] returns this rank's block of the label
    vector.  Collective; [graph.comm_size] must equal the communicator
    size. *)
val run :
  ?variant:Gexchange.variant -> Kamping.Comm.t -> Graphgen.Distgraph.t -> int array

(** {1 Block step kernels}

    Setup and one propagation round on one block of the vertex range —
    a rank's slice in {!run}, a virtual shard's slice in
    {!Conncomp_resilient}.  Outgoing pairs are bucketed by the block
    owning their first component, as {!Gexchange.exchange} takes them. *)

(** [out_edges g] is the block's out-adjacency (local index ->
    targets) and its reversed edges [(target, source)]. *)
val out_edges :
  Graphgen.Distgraph.t -> int Ds.Vec.t array * (int * (int * int) Ds.Vec.t) list

(** [add_reversals g adj payloads] adds the received reversed edges to
    [adj], making it undirected. *)
val add_reversals :
  Graphgen.Distgraph.t -> int Ds.Vec.t array -> (int * int) Ds.Vec.t list -> unit

(** [initial_labels g] labels every vertex with its own id. *)
val initial_labels : Graphgen.Distgraph.t -> int array

(** [label_offers g adj labels] offers every vertex's label to all its
    undirected neighbors, as [(neighbor, label)] pairs. *)
val label_offers :
  Graphgen.Distgraph.t -> int Ds.Vec.t array -> int array -> (int * (int * int) Ds.Vec.t) list

(** [absorb_offers g labels payloads] lowers [labels] to every smaller
    received offer; [true] iff some label changed. *)
val absorb_offers : Graphgen.Distgraph.t -> int array -> (int * int) Ds.Vec.t list -> bool

(** [reference family ~global_n ~avg_degree ~seed] is the host-side
    oracle: union-find over the full edge list, labels rewritten to the
    component minimum. *)
val reference :
  Graphgen.Generators.family -> global_n:int -> avg_degree:int -> seed:int -> int array
