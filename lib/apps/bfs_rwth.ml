(* BFS frontier exchange against the RWTH-MPI style: convenience overloads
   for the regular parts, C mirroring for the irregular exchange — the
   closest competitor in Table I (32 LoC vs. KaMPIng's 22). *)

module R = Bindings.Rwth_mpi
module D = Mpisim.Datatype
module V = Ds.Vec

let all_empty (st : Bfs_common.state) empty =
  R.allreduce (R.wrap st.Bfs_common.comm) D.bool Mpisim.Op.bool_and empty

let exchange (st : Bfs_common.state) remote =
  let comm = R.wrap st.Bfs_common.comm in
  let p = R.size comm in
  let data, scounts = Bfs_common.flatten_buckets p remote in
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let rcounts = R.alltoall comm D.int scounts in
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let recvbuf = Array.make (max total 1) 0 in
  R.alltoallv comm D.int ~sendbuf:(V.unsafe_data data) ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  V.unsafe_of_array recvbuf total

let bfs comm graph ~src =
  let st = Bfs_common.init comm graph src in
  Bfs_common.run st ~exchange ~all_empty
