(* BFS with the alternative all-to-all strategies of Fig. 10 (paper
   Sec. V-A): KaMPIng's sparse (NBX) and grid plugins, and MPI-3
   neighborhood collectives with a static or per-level-rebuilt topology. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec
module G = Graphgen.Distgraph

let all_empty (st : Bfs_common.state) empty =
  K.allreduce_single (K.wrap st.Bfs_common.comm) D.bool Mpisim.Op.bool_and empty

let bfs_sparse comm graph ~src =
  let st = Bfs_common.init comm graph src in
  let exchange (st : Bfs_common.state) remote =
    let kc = K.wrap st.Bfs_common.comm in
    let messages = Hashtbl.fold (fun dest v acc -> (dest, v) :: acc) remote [] in
    let received = Kamping_plugins.Sparse_alltoall.exchange kc D.int ~messages in
    let out = V.create () in
    List.iter (fun (_, v) -> V.append out v) received;
    out
  in
  Bfs_common.run st ~exchange ~all_empty

let bfs_grid comm graph ~src =
  let kc = K.wrap comm in
  let grid = Kamping_plugins.Grid_alltoall.create kc in
  let st = Bfs_common.init comm graph src in
  let exchange (st : Bfs_common.state) remote =
    let p = Mpisim.Comm.size st.Bfs_common.comm in
    let data, send_counts = Bfs_common.flatten_buckets p remote in
    let out, _ = Kamping_plugins.Grid_alltoall.alltoallv grid D.int ~send_buf:data ~send_counts in
    out
  in
  Bfs_common.run st ~exchange ~all_empty

(* The static communication graph: one topology over the ranks that share
   at least one graph edge, built once. *)
let neighbor_exchange topo partners (st : Bfs_common.state) remote =
  let degree = Array.length partners in
  let scounts = Array.make degree 0 in
  let chunks = Array.make degree (V.create ()) in
  Array.iteri
    (fun i dst ->
      match Hashtbl.find_opt remote dst with
      | Some v ->
          scounts.(i) <- V.length v;
          chunks.(i) <- v
      | None -> chunks.(i) <- V.create ())
    partners;
  (* every destination must be a declared neighbor *)
  Hashtbl.iter
    (fun dst v ->
      if V.length v > 0 && not (Array.exists (fun x -> x = dst) partners) then
        Mpisim.Errors.usage "BFS frontier crosses an undeclared topology edge to rank %d" dst)
    remote;
  let sendbuf = V.create () in
  Array.iter (fun v -> V.append sendbuf v) chunks;
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  (* exchange counts over the topology, then the payload *)
  let rcounts = Array.make degree 0 in
  Mpisim.Topology.neighbor_alltoall topo D.int ~sendbuf:scounts ~recvbuf:rcounts ~count:1;
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = if degree = 0 then 0 else rdispls.(degree - 1) + rcounts.(degree - 1) in
  let recvbuf = Array.make (max total 1) 0 in
  Mpisim.Topology.neighbor_alltoallv topo D.int ~sendbuf:(V.unsafe_data sendbuf) ~scounts ~sdispls
    ~recvbuf ~rcounts ~rdispls;
  ignore st;
  V.unsafe_of_array recvbuf total

let bfs_neighbor comm graph ~src =
  let partners = G.rank_partners graph in
  let topo = Mpisim.Topology.dist_graph_create_adjacent comm ~sources:partners ~destinations:partners in
  let st = Bfs_common.init comm graph src in
  Bfs_common.run st ~exchange:(neighbor_exchange topo partners) ~all_empty

(* Rebuilding the topology before every exchange models dynamically
   changing communication patterns — where neighborhood collectives stop
   scaling (end of Sec. V-A). *)
let bfs_neighbor_dynamic comm graph ~src =
  let partners = G.rank_partners graph in
  let st = Bfs_common.init comm graph src in
  let exchange (st : Bfs_common.state) remote =
    let topo =
      Mpisim.Topology.dist_graph_create_adjacent st.Bfs_common.comm ~sources:partners
        ~destinations:partners
    in
    neighbor_exchange topo partners st remote
  in
  Bfs_common.run st ~exchange ~all_empty
