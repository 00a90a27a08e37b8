(* Sample sort against the Boost.MPI-style interface.  Boost provides no
   MPI_Alltoallv binding (Sec. II), so the bucket exchange falls back to a
   hand-written irregular exchange over point-to-point messages. *)

module B = Bindings.Boost_mpi
module D = Mpisim.Datatype

let sort raw data =
  let comm = B.wrap raw in
  let p = B.size comm and r = B.rank comm in
  let k = Ss_common.num_samples p in
  let lsamples = Ss_common.draw_samples ~rank:r ~seed:17 data k in
  let gsamples = B.all_gather_block comm D.int lsamples in
  Array.sort Int.compare gsamples;
  let splitters = Ss_common.select_splitters gsamples p in
  Ss_common.local_sort raw data;
  let scounts = Ss_common.bucket_counts data splitters p in
  Ss_common.charge_partition raw (Array.length data);
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  (* no alltoallv: exchange counts, then pairwise isend/recv *)
  let rcounts = B.all_to_all comm D.int scounts in
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let recvbuf = Array.make (max total 1) 0 in
  Array.blit data sdispls.(r) recvbuf rdispls.(r) scounts.(r);
  let reqs = ref [] in
  for i = 1 to p - 1 do
    let dst = (r + i) mod p in
    if scounts.(dst) > 0 then
      reqs :=
        B.isend comm D.int (Array.sub data sdispls.(dst) scounts.(dst)) ~dst ~tag:0 :: !reqs
  done;
  for i = 1 to p - 1 do
    let src = (r - i + p) mod p in
    if rcounts.(src) > 0 then begin
      let chunk = Array.make rcounts.(src) 0 in
      ignore (Mpisim.Request.wait (B.irecv comm D.int chunk ~src ~tag:0));
      Array.blit chunk 0 recvbuf rdispls.(src) rcounts.(src)
    end
  done;
  List.iter (fun req -> ignore (Mpisim.Request.wait req)) !reqs;
  let result = Array.sub recvbuf 0 total in
  Ss_common.local_sort raw result;
  result
