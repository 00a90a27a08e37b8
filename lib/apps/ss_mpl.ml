(* Sample sort against the MPL-style interface: every buffer needs an
   explicit layout object, and the variable-size exchange takes MPL's
   Alltoallw path (the performance trap measured in Fig. 8). *)

module M = Bindings.Mpl
module D = Mpisim.Datatype

let sort raw data =
  let comm = M.wrap raw in
  let p = M.size comm and r = M.rank comm in
  let k = Ss_common.num_samples p in
  let lsamples = Ss_common.draw_samples ~rank:r ~seed:17 data k in
  let gsamples = Array.make (p * k) 0 in
  M.allgather comm D.int lsamples gsamples ~count:k;
  Array.sort Int.compare gsamples;
  let splitters = Ss_common.select_splitters gsamples p in
  Ss_common.local_sort raw data;
  let scounts = Ss_common.bucket_counts data splitters p in
  Ss_common.charge_partition raw (Array.length data);
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let count_send = Array.make p 0 in
  let count_recv = Array.make p 0 in
  Array.blit scounts 0 count_send 0 p;
  M.alltoall comm D.int count_send count_recv ~count:1;
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
  M.alltoallv comm D.int data send_layouts recvbuf recv_layouts;
  let result = Array.sub recvbuf 0 total in
  Ss_common.local_sort raw result;
  result
