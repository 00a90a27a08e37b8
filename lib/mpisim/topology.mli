(** Graph topologies and neighborhood collectives (MPI-3).

    [dist_graph_create_adjacent] is collective and pays a setup cost that
    grows with the communicator size and the local degree — which is why
    rebuilding the topology before every exchange does not scale for dynamic
    communication patterns (the paper's argument for the NBX-based sparse
    all-to-all plugin, Sec. V-A). *)

type t

(** [dist_graph_create_adjacent comm ~sources ~destinations] declares the
    static communication graph: this rank will receive from [sources] and
    send to [destinations] (comm ranks, both sides must be consistent).
    Collective over [comm]. *)
val dist_graph_create_adjacent : Comm.t -> sources:int array -> destinations:int array -> t

(** [indegree topo] and [outdegree topo] are the local degrees. *)
val indegree : t -> int

val outdegree : t -> int

(** [neighbor_alltoall topo dt ~sendbuf ~recvbuf ~count] exchanges a fixed
    [count] of elements with every neighbor: block [i] of [sendbuf] goes to
    [destinations.(i)]; block [j] of [recvbuf] comes from [sources.(j)]. *)
val neighbor_alltoall :
  t -> 'a Datatype.t -> sendbuf:'a array -> recvbuf:'a array -> count:int -> unit

(** [neighbor_alltoallv topo dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts
    ~rdispls] is the variable-size neighborhood exchange. *)
val neighbor_alltoallv :
  t ->
  'a Datatype.t ->
  sendbuf:'a array ->
  scounts:int array ->
  sdispls:int array ->
  recvbuf:'a array ->
  rcounts:int array ->
  rdispls:int array ->
  unit
