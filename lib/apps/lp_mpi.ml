(* Label propagation ghost pull against the plain MPI interface: all count
   and displacement bookkeeping spelled out per iteration (the 154-LoC-role
   variant of Sec. IV-B). *)

module C = Mpisim.Collectives
module D = Mpisim.Datatype
let pull comm (ghosts : Lp_common.ghosts) labels ghost_values =
  let p = Mpisim.Comm.size comm in
  (* owners ship the current labels of the statically requested vertices *)
  let scounts = Array.make p 0 in
  Array.iter
    (fun (requester, ids) -> scounts.(requester) <- Array.length ids)
    ghosts.Lp_common.send_to;
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let total_send = Array.fold_left ( + ) 0 scounts in
  let sendbuf = Array.make (max total_send 1) 0 in
  let cursor = ref 0 in
  Array.iter
    (fun (_, ids) ->
      Array.iter
        (fun gid ->
          sendbuf.(!cursor) <- labels.(gid - ghosts.Lp_common.first_vertex);
          incr cursor)
        ids)
    ghosts.Lp_common.send_to;
  (* receive counts follow from the static request lists *)
  let rcounts = Array.make p 0 in
  Array.iter (fun (o, ids) -> rcounts.(o) <- Array.length ids) ghosts.Lp_common.need;
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total_recv = Array.fold_left ( + ) 0 rcounts in
  let recvbuf = Array.make (max total_recv 1) 0 in
  C.alltoallv comm D.int ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  Array.blit recvbuf 0 ghost_values 0 total_recv

let run comm graph ~iterations ~max_cluster_size =
  Lp_common.run comm graph ~pull ~iterations ~max_cluster_size
