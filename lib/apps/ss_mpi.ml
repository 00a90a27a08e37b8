(* Sample sort against the plain (C-style) MPI interface — the verbose
   baseline of Table I / Fig. 8. *)

module C = Mpisim.Collectives
module D = Mpisim.Datatype

let sort comm data =
  let p = Mpisim.Comm.size comm and r = Mpisim.Comm.rank comm in
  let k = Ss_common.num_samples p in
  let lsamples = Ss_common.draw_samples ~rank:r ~seed:17 data k in
  let gsamples = Array.make (p * k) 0 in
  C.allgather comm D.int ~sendbuf:lsamples ~recvbuf:gsamples ~count:k;
  Array.sort Int.compare gsamples;
  let splitters = Ss_common.select_splitters gsamples p in
  Ss_common.local_sort comm data;
  let scounts = Ss_common.bucket_counts data splitters p in
  Ss_common.charge_partition comm (Array.length data);
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let rcounts = Array.make p 0 in
  C.alltoall comm D.int ~sendbuf:scounts ~recvbuf:rcounts ~count:1;
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let recvbuf = Array.make (max total 1) 0 in
  C.alltoallv comm D.int ~sendbuf:data ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  let result = Array.sub recvbuf 0 total in
  Ss_common.local_sort comm result;
  result
