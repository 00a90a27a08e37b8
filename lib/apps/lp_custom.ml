(* Label propagation ghost pull through a dKaMinPar-style dedicated
   abstraction layer: a specialized, stateful ghost-exchange object with
   preallocated buffers — the tersest use site (106-LoC role), at the cost
   of owning and maintaining the bespoke layer below. *)

module C = Mpisim.Collectives
module D = Mpisim.Datatype

(* The bespoke layer: everything precomputed at construction. *)
module Ghost_layer = struct
  type t = {
    comm : Mpisim.Comm.t;
    scounts : int array;
    sdispls : int array;
    rcounts : int array;
    rdispls : int array;
    sendbuf : int array;
    recvbuf : int array;
    fill : (int array -> unit);  (* labels -> sendbuf *)
  }

  let create comm (ghosts : Lp_common.ghosts) =
    let p = Mpisim.Comm.size comm in
    let scounts = Array.make p 0 in
    Array.iter (fun (req, ids) -> scounts.(req) <- Array.length ids) ghosts.Lp_common.send_to;
    let sdispls = Mpisim.Collectives.exclusive_scan scounts in
    let rcounts = Array.make p 0 in
    Array.iter (fun (o, ids) -> rcounts.(o) <- Array.length ids) ghosts.Lp_common.need;
    let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
    let sendbuf = Array.make (max 1 (Array.fold_left ( + ) 0 scounts)) 0 in
    let recvbuf = Array.make (max 1 (Array.fold_left ( + ) 0 rcounts)) 0 in
    let fill labels =
      let cursor = ref 0 in
      Array.iter
        (fun (_, ids) ->
          Array.iter
            (fun gid ->
              sendbuf.(!cursor) <- labels.(gid - ghosts.Lp_common.first_vertex);
              incr cursor)
            ids)
        ghosts.Lp_common.send_to
    in
    { comm; scounts; sdispls; rcounts; rdispls; sendbuf; recvbuf; fill }

  let pull t labels ghost_values =
    t.fill labels;
    C.alltoallv t.comm D.int ~sendbuf:t.sendbuf ~scounts:t.scounts ~sdispls:t.sdispls
      ~recvbuf:t.recvbuf ~rcounts:t.rcounts ~rdispls:t.rdispls;
    Array.blit t.recvbuf 0 ghost_values 0 (Array.length ghost_values)
end

let run comm graph ~iterations ~max_cluster_size =
  let layer = ref None in
  let pull comm ghosts labels ghost_values =
    let l =
      match !layer with
      | Some l -> l
      | None ->
          let l = Ghost_layer.create comm ghosts in
          layer := Some l;
          l
    in
    Ghost_layer.pull l labels ghost_values
  in
  Lp_common.run comm graph ~pull ~iterations ~max_cluster_size
