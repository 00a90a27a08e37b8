(* Sample sort against the RWTH-MPI-style interface: convenient overloads
   for the regular collectives, C-style mirroring for alltoallv. *)

module R = Bindings.Rwth_mpi
module D = Mpisim.Datatype

let sort raw data =
  let comm = R.wrap raw in
  let p = R.size comm and r = R.rank comm in
  let lsamples = Ss_common.draw_samples ~rank:r ~seed:17 data (Ss_common.num_samples p) in
  let gsamples = R.allgather comm D.int lsamples in
  Array.sort Int.compare gsamples;
  let splitters = Ss_common.select_splitters gsamples p in
  Ss_common.local_sort raw data;
  let scounts = Ss_common.bucket_counts data splitters p in
  Ss_common.charge_partition raw (Array.length data);
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let rcounts = R.alltoall comm D.int scounts in
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let recvbuf = Array.make (max total 1) 0 in
  R.alltoallv comm D.int ~sendbuf:data ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  let result = Array.sub recvbuf 0 total in
  Ss_common.local_sort raw result;
  result
