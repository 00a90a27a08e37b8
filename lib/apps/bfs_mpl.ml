(* BFS frontier exchange against the MPL style: explicit layout objects for
   every window, and the exchange rides MPL's Alltoallw path — considerably
   slower on all graph configurations (Sec. IV-B). *)

module M = Bindings.Mpl
module D = Mpisim.Datatype
module V = Ds.Vec

let all_empty (st : Bfs_common.state) empty =
  M.allreduce (M.wrap st.Bfs_common.comm) D.bool Mpisim.Op.bool_and empty

let exchange (st : Bfs_common.state) remote =
  let comm = M.wrap st.Bfs_common.comm in
  let p = M.size comm in
  let data, scounts = Bfs_common.flatten_buckets p remote in
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let count_recv = Array.make p 0 in
  M.alltoall comm D.int scounts count_recv ~count:1;
  let rcounts = count_recv in
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let recvbuf = Array.make (max total 1) 0 in
  let send_layouts =
    Array.init p (fun d -> M.contiguous_layout ~displ:sdispls.(d) ~count:scounts.(d) ())
  in
  let recv_layouts =
    Array.init p (fun s -> M.contiguous_layout ~displ:rdispls.(s) ~count:rcounts.(s) ())
  in
  M.alltoallv comm D.int (V.unsafe_data data) send_layouts recvbuf recv_layouts;
  V.unsafe_of_array recvbuf total

let bfs comm graph ~src =
  let st = Bfs_common.init comm graph src in
  Bfs_common.run st ~exchange ~all_empty
