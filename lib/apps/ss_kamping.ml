(* Sample sort with KaMPIng (paper Fig. 7): the collectives collapse to
   one-liners with inferred counts and results by value. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec

let sort comm data =
  let kc = K.wrap comm in
  let p = K.size kc and r = K.rank kc in
  let lsamples = Ss_common.draw_samples ~rank:r ~seed:17 data (Ss_common.num_samples p) in
  let gsamples = V.to_array (K.allgather kc D.int ~send_buf:(V.of_array lsamples)) in
  Array.sort Int.compare gsamples;
  let splitters = Ss_common.select_splitters gsamples p in
  Ss_common.local_sort comm data;
  let send_counts = Ss_common.bucket_counts data splitters p in
  Ss_common.charge_partition comm (Array.length data);
  let res = K.alltoallv kc D.int ~send_buf:(V.of_array data) ~send_counts in
  let result = V.to_array res.K.recv_buf in
  Ss_common.local_sort comm result;
  result
