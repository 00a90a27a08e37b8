(* BFS frontier exchange against the Boost.MPI style: no alltoallv binding,
   so counts go through all_to_all and the payload through point-to-point
   messages. *)

module B = Bindings.Boost_mpi
module D = Mpisim.Datatype
module V = Ds.Vec

let all_empty (st : Bfs_common.state) empty =
  B.all_reduce (B.wrap st.Bfs_common.comm) D.bool Mpisim.Op.bool_and empty

let exchange (st : Bfs_common.state) remote =
  let comm = B.wrap st.Bfs_common.comm in
  let p = B.size comm and r = B.rank comm in
  let data, scounts = Bfs_common.flatten_buckets p remote in
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let rcounts = B.all_to_all comm D.int scounts in
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let recvbuf = Array.make (max total 1) 0 in
  let reqs = ref [] in
  for i = 1 to p - 1 do
    let dst = (r + i) mod p in
    if scounts.(dst) > 0 then
      reqs :=
        B.isend comm D.int
          (Array.sub (V.unsafe_data data) sdispls.(dst) scounts.(dst))
          ~dst ~tag:1
        :: !reqs
  done;
  for i = 1 to p - 1 do
    let src = (r - i + p) mod p in
    if rcounts.(src) > 0 then begin
      let chunk = Array.make rcounts.(src) 0 in
      ignore (Mpisim.Request.wait (B.irecv comm D.int chunk ~src ~tag:1));
      Array.blit chunk 0 recvbuf rdispls.(src) rcounts.(src)
    end
  done;
  List.iter (fun req -> ignore (Mpisim.Request.wait req)) !reqs;
  V.unsafe_of_array recvbuf total

let bfs comm graph ~src =
  let st = Bfs_common.init comm graph src in
  Bfs_common.run st ~exchange ~all_empty
