type t = { comm : Comm.t; sources : int array; destinations : int array }

(* Building the distributed graph requires agreeing on the edge set; real
   implementations exchange and validate adjacency information.  We model
   that with a barrier (synchronization) plus a per-edge setup cost. *)
let dist_graph_create_adjacent comm ~sources ~destinations =
  Comm.check_active comm;
  let check_rank what r =
    if r < 0 || r >= Comm.size comm then Errors.usage "dist_graph_create_adjacent: bad %s rank %d" what r
  in
  Array.iter (check_rank "source") sources;
  Array.iter (check_rank "destination") destinations;
  Observe.call Comm_mgmt comm "MPI_Dist_graph_create_adjacent" @@ fun () ->
  let per_edge_setup = 0.2e-6 in
  Comm.compute comm
    (float_of_int (Array.length sources + Array.length destinations) *. per_edge_setup);
  (* a dissemination barrier synchronizes the collective *)
  Coll_impl.dissemination comm ~tag:(Comm.next_collective_tag comm);
  { comm; sources = Array.copy sources; destinations = Array.copy destinations }

let indegree topo = Array.length topo.sources
let outdegree topo = Array.length topo.destinations

let neighbor_exchange topo dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls ~name =
  let comm = topo.comm in
  Comm.check_active comm;
  Observe.call Comm_mgmt comm name @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  let recv_reqs =
    List.init (Array.length topo.sources) (fun j ->
        P2p.irecv ~ctx:Internal ~pos:rdispls.(j) ~count:rcounts.(j) comm dt recvbuf
          ~src:topo.sources.(j) ~tag)
  in
  Array.iteri
    (fun i dst -> P2p.send ~ctx:Internal ~pos:sdispls.(i) ~count:scounts.(i) comm dt sendbuf ~dst ~tag)
    topo.destinations;
  ignore (Request.wait_all recv_reqs)

let neighbor_alltoall topo dt ~sendbuf ~recvbuf ~count =
  let sdispls = Array.init (Array.length topo.destinations) (fun i -> i * count) in
  let rdispls = Array.init (Array.length topo.sources) (fun j -> j * count) in
  let scounts = Array.make (Array.length topo.destinations) count in
  let rcounts = Array.make (Array.length topo.sources) count in
  neighbor_exchange topo dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls
    ~name:"MPI_Neighbor_alltoall"

let neighbor_alltoallv topo dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  if
    Array.length scounts <> Array.length topo.destinations
    || Array.length rcounts <> Array.length topo.sources
  then Errors.usage "neighbor_alltoallv: counts arrays must match the local degrees";
  neighbor_exchange topo dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls
    ~name:"MPI_Neighbor_alltoallv"
