module Engine = Simnet.Engine
module Algo = Coll_algos.Algo
module Select = Coll_algos.Select

let check_root comm root =
  if root < 0 || root >= Comm.size comm then
    Errors.usage "root %d out of range for communicator of size %d" root (Comm.size comm)

let check_count what count =
  if count < 0 then Errors.usage "%s: negative count %d" what count

(* [buf]'s window [pos, pos + count) must lie inside it. *)
let check_window what name buf pos count =
  if pos < 0 || pos + count > Array.length buf then
    Errors.usage "%s: %s window [%d, %d) exceeds its length %d" what name pos (pos + count)
      (Array.length buf)

(* A v-collective's layout: one count and one displacement per rank, none
   negative, every block inside [buf]. *)
let check_layout what comm ~counts ~displs ~names buf =
  let p = Comm.size comm in
  if Array.length counts <> p || Array.length displs <> p then
    Errors.usage "%s: %s must have one entry per rank" what names;
  for i = 0 to p - 1 do
    let c = counts.(i) and d = displs.(i) in
    if c < 0 || d < 0 then
      Errors.usage "%s: %s has a negative entry for rank %d (%d, %d)" what names i c d;
    if d + c > Array.length buf then
      Errors.usage "%s: %s block of rank %d, [%d, %d), exceeds the buffer of length %d" what
        names i d (d + c) (Array.length buf)
  done

(* ------------------------------------------------------------------ *)
(* Algorithm selection.                                                *)
(* ------------------------------------------------------------------ *)

(* Selection inputs are identical on every rank of the communicator — the
   tuning table lives in the world, the network parameters come from the
   communicator's group, and the call arguments must agree anyway — so all
   ranks pick the same algorithm without communicating. *)
let tuning comm = (Comm.world comm).World.tuning

let params_for comm =
  Simnet.Netmodel.params_for_group (Comm.world comm).World.net (Comm.group comm)

(* Topology profile of the communicator's group ([None] off tiered
   fabrics, where selection must stay exactly pre-topology). *)
let hier_for comm =
  Simnet.Netmodel.hier_for_group (Comm.world comm).World.net (Comm.group comm)

(* Node id of every communicator rank — the structure the hierarchical
   bodies derive their leader/member ordering from. *)
let nodes_for comm =
  let net = (Comm.world comm).World.net in
  Array.map (fun wr -> Simnet.Netmodel.node_of net wr) (Comm.group comm)

let pin_algorithm comm ~coll ~algo = Select.pin (tuning comm) ~cid:(Comm.id comm) ~coll ~algo

let pin_table_algorithm comm ~coll table =
  Select.pin_table (tuning comm) ~cid:(Comm.id comm) ~coll table

let unpin_algorithm comm ~coll = Select.unpin (tuning comm) ~cid:(Comm.id comm) ~coll
let pinned_algorithm comm ~coll = Select.pinned (tuning comm) ~cid:(Comm.id comm) ~coll

let pinned_table_algorithm comm ~coll = Select.pinned_table (tuning comm) ~cid:(Comm.id comm) ~coll

let select_bcast comm dt count =
  Select.bcast ?hier:(hier_for comm) (tuning comm) ~cid:(Comm.id comm) (params_for comm)
    ~p:(Comm.size comm) ~bytes:(Datatype.bytes dt count)

let select_allreduce comm dt op count =
  Select.allreduce ?hier:(hier_for comm) (tuning comm) ~cid:(Comm.id comm) (params_for comm)
    ~p:(Comm.size comm) ~bytes:(Datatype.bytes dt count) ~elems:count
    ~op_cost:(Op.cost_per_element op) ~commutative:(Op.commutative op)

let select_allgather comm dt count =
  Select.allgather (tuning comm) ~cid:(Comm.id comm) (params_for comm) ~p:(Comm.size comm)
    ~bytes:(Datatype.bytes dt count)

let select_alltoall comm dt count =
  Select.alltoall ?hier:(hier_for comm) (tuning comm) ~cid:(Comm.id comm) (params_for comm)
    ~p:(Comm.size comm) ~bytes:(Datatype.bytes dt count)

(* Tag discipline: every rank must draw the same number of collective tags
   per call, so each dispatcher draws a fixed count up front (enough for
   the most tag-hungry candidate) no matter which algorithm wins. *)
let draw2 comm =
  let a = Comm.next_collective_tag comm in
  let b = Comm.next_collective_tag comm in
  (a, b)

let draw4 comm =
  let a = Comm.next_collective_tag comm in
  let b = Comm.next_collective_tag comm in
  let c = Comm.next_collective_tag comm in
  let d = Comm.next_collective_tag comm in
  (a, b, c, d)

let run_bcast comm dt buf pos count ~root algo ~tags:(tag, tag2) =
  match (algo : Algo.bcast) with
  | Bcast_binomial -> Coll_impl.bcast_binomial comm dt buf pos count ~root ~tag
  | Bcast_scatter_allgather ->
      Coll_impl.bcast_scatter_allgather comm dt buf pos count ~root ~tag ~tag2
  | Bcast_node_leader ->
      Coll_impl.bcast_node_leader comm dt buf pos count ~root ~nodes:(nodes_for comm) ~tag ~tag2

let run_allreduce comm dt op ~sendbuf ~pos ~recvbuf ~count algo ~tags:(t1, t2, t3, t4) =
  match (algo : Algo.allreduce) with
  | Ar_reduce_bcast ->
      Coll_impl.allreduce_reduce_bcast comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag:t1 ~tag2:t2
  | Ar_recursive_doubling ->
      Coll_impl.allreduce_recursive_doubling comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_fold:t1
        ~tag:t2
  | Ar_rabenseifner ->
      Coll_impl.allreduce_rabenseifner comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_fold:t1
        ~tag_rs:t2 ~tag_ag:t3
  | Ar_ring -> Coll_impl.allreduce_ring comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_rs:t1 ~tag_ag:t2
  | Ar_node_leader ->
      Coll_impl.allreduce_node_leader comm dt op ~sendbuf ~pos ~recvbuf ~count
        ~nodes:(nodes_for comm) ~tag_up:t1 ~tag_fold:t2 ~tag_rd:t3 ~tag_down:t4

let run_allgather comm dt ~recvbuf ~rpos ~count ~my_block_pos ~my_block_buf algo ~tag =
  let f =
    match (algo : Algo.allgather) with
    | Ag_bruck -> Coll_impl.allgather_bruck
    | Ag_ring -> Coll_impl.allgather_ring
    | Ag_recursive_doubling -> Coll_impl.allgather_recursive_doubling
  in
  f comm dt ~recvbuf ~rpos ~count ~tag ~my_block_pos ~my_block_buf

let run_alltoall comm dt ~sendbuf ~recvbuf ~count algo ~tags:(t1, t2, t3, t4) =
  match (algo : Algo.alltoall) with
  | A2a_pairwise -> Coll_impl.alltoall_pairwise comm dt ~sendbuf ~recvbuf ~count ~tag:t1
  | A2a_bruck -> Coll_impl.alltoall_bruck comm dt ~sendbuf ~recvbuf ~count ~tag:t1
  | A2a_smp ->
      Coll_impl.alltoall_smp comm dt ~sendbuf ~recvbuf ~count ~nodes:(nodes_for comm) ~tag_local:t1
        ~tag_up:t2 ~tag_net:t3 ~tag_down:t4
  | A2a_hypergrid -> Coll_impl.alltoall_hypergrid comm dt ~sendbuf ~recvbuf ~count ~tag:t1 ~tag2:t2

(* ------------------------------------------------------------------ *)
(* Public operations.                                                  *)
(* ------------------------------------------------------------------ *)

let barrier comm =
  Comm.check_active comm;
  Observe.coll comm "MPI_Barrier" @@ fun () ->
  Coll_impl.dissemination comm ~tag:(Comm.next_collective_tag comm)

let bcast ?(pos = 0) ?count comm dt buf ~root =
  Comm.check_active comm;
  check_root comm root;
  let count = match count with Some c -> c | None -> Array.length buf - pos in
  check_count "bcast" count;
  let algo = select_bcast comm dt count in
  Observe.coll ~root ~count ~dt ~algo:(Algo.bcast_name algo) comm "MPI_Bcast" @@ fun () ->
  run_bcast comm dt buf pos count ~root algo ~tags:(draw2 comm)

let reduce ?(pos = 0) ?recvbuf comm dt op ~sendbuf ~count ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "reduce" count;
  Observe.coll ~root ~count ~dt comm "MPI_Reduce" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  let acc = Coll_impl.reduce_binomial comm dt op ~sendbuf ~pos ~count ~root ~tag in
  if Comm.rank comm = root then begin
    match recvbuf with
    | Some rb -> Array.blit acc 0 rb 0 count
    | None -> Errors.usage "reduce: the root rank needs a receive buffer"
  end

let allreduce ?(pos = 0) comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "allreduce" count;
  let algo = select_allreduce comm dt op count in
  Observe.coll ~count ~dt ~algo:(Algo.allreduce_name algo) comm "MPI_Allreduce" @@ fun () ->
  run_allreduce comm dt op ~sendbuf ~pos ~recvbuf ~count algo ~tags:(draw4 comm)

let allgather ?(inplace = false) ?(spos = 0) ?(rpos = 0) comm dt ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "allgather" count;
  let algo = select_allgather comm dt count in
  Observe.coll ~count ~dt ~algo:(Algo.allgather_name algo) comm "MPI_Allgather" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  let my_block_buf, my_block_pos =
    if inplace then (recvbuf, rpos + (Comm.rank comm * count)) else (sendbuf, spos)
  in
  run_allgather comm dt ~recvbuf ~rpos ~count ~my_block_pos ~my_block_buf algo ~tag

(* Ring allgatherv: in step s, pass along the block received in step s-1.
   Successive messages between the same neighbours share a tag; the network
   model preserves per-link FIFO order (injection rate >= wire rate). *)
let allgatherv ?(inplace = false) ?(spos = 0) comm dt ~sendbuf ~scount ~recvbuf ~rcounts ~rdispls =
  Comm.check_active comm;
  let p = Comm.size comm and r = Comm.rank comm in
  check_layout "allgatherv" comm ~counts:rcounts ~displs:rdispls ~names:"rcounts/rdispls" recvbuf;
  if scount <> rcounts.(r) then
    Errors.usage "allgatherv: send count %d disagrees with rcounts.(%d) = %d" scount r rcounts.(r);
  if not inplace then check_window "allgatherv" "sendbuf" sendbuf spos scount;
  Observe.coll ~dt comm "MPI_Allgatherv" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  if not inplace then Array.blit sendbuf spos recvbuf rdispls.(r) scount;
  if p > 1 then begin
    let dst = (r + 1) mod p and src = (r - 1 + p) mod p in
    for step = 1 to p - 1 do
      let send_block = (r - step + 1 + p) mod p in
      let recv_block = (r - step + p) mod p in
      let req =
        P2p.isend ~ctx:Internal ~pos:rdispls.(send_block) ~count:rcounts.(send_block) comm dt
          recvbuf ~dst ~tag
      in
      ignore
        (P2p.recv ~ctx:Internal ~pos:rdispls.(recv_block) ~count:rcounts.(recv_block) comm dt
           recvbuf ~src ~tag);
      ignore (Request.wait req)
    done
  end

let gather ?(spos = 0) ?(rpos = 0) ?recvbuf comm dt ~sendbuf ~count ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "gather" count;
  Observe.coll ~root ~count ~dt comm "MPI_Gather" @@ fun () ->
  let p = Comm.size comm and r = Comm.rank comm in
  let tag = Comm.next_collective_tag comm in
  if r = root then begin
    let recvbuf =
      match recvbuf with
      | Some rb -> rb
      | None -> Errors.usage "gather: the root rank needs a receive buffer"
    in
    Array.blit sendbuf spos recvbuf (rpos + (r * count)) count;
    for src = 0 to p - 1 do
      if src <> root then
        ignore (P2p.recv ~ctx:Internal ~pos:(rpos + (src * count)) ~count comm dt recvbuf ~src ~tag)
    done
  end
  else P2p.send ~ctx:Internal ~pos:spos ~count comm dt sendbuf ~dst:root ~tag

let gatherv ?(spos = 0) ?recvbuf ?rcounts ?rdispls comm dt ~sendbuf ~scount ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "gatherv" scount;
  check_window "gatherv" "sendbuf" sendbuf spos scount;
  let p = Comm.size comm and r = Comm.rank comm in
  let at_root =
    if r <> root then None
    else
      match (recvbuf, rcounts, rdispls) with
      | Some rb, Some rc, Some rd ->
          check_layout "gatherv" comm ~counts:rc ~displs:rd ~names:"rcounts/rdispls" rb;
          Some (rb, rc, rd)
      | _ -> Errors.usage "gatherv: the root rank needs recvbuf, rcounts and rdispls"
  in
  Observe.coll ~root ~dt comm "MPI_Gatherv" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  match at_root with
  | Some (recvbuf, rcounts, rdispls) ->
      Array.blit sendbuf spos recvbuf rdispls.(r) scount;
      for src = 0 to p - 1 do
        if src <> root then
          ignore
            (P2p.recv ~ctx:Internal ~pos:rdispls.(src) ~count:rcounts.(src) comm dt recvbuf ~src
               ~tag)
      done
  | None -> P2p.send ~ctx:Internal ~pos:spos ~count:scount comm dt sendbuf ~dst:root ~tag

let scatter ?(spos = 0) ?(rpos = 0) ?sendbuf comm dt ~recvbuf ~count ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "scatter" count;
  Observe.coll ~root ~count ~dt comm "MPI_Scatter" @@ fun () ->
  let p = Comm.size comm and r = Comm.rank comm in
  let tag = Comm.next_collective_tag comm in
  if r = root then begin
    let sendbuf =
      match sendbuf with
      | Some sb -> sb
      | None -> Errors.usage "scatter: the root rank needs a send buffer"
    in
    Array.blit sendbuf (spos + (r * count)) recvbuf rpos count;
    for dst = 0 to p - 1 do
      if dst <> root then
        P2p.send ~ctx:Internal ~pos:(spos + (dst * count)) ~count comm dt sendbuf ~dst ~tag
    done
  end
  else ignore (P2p.recv ~ctx:Internal ~pos:rpos ~count comm dt recvbuf ~src:root ~tag)

let scatterv ?(rpos = 0) ?sendbuf ?scounts ?sdispls comm dt ~recvbuf ~rcount ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "scatterv" rcount;
  check_window "scatterv" "recvbuf" recvbuf rpos rcount;
  let p = Comm.size comm and r = Comm.rank comm in
  let at_root =
    if r <> root then None
    else
      match (sendbuf, scounts, sdispls) with
      | Some sb, Some sc, Some sd ->
          check_layout "scatterv" comm ~counts:sc ~displs:sd ~names:"scounts/sdispls" sb;
          Some (sb, sc, sd)
      | _ -> Errors.usage "scatterv: the root rank needs sendbuf, scounts and sdispls"
  in
  Observe.coll ~root ~dt comm "MPI_Scatterv" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  match at_root with
  | Some (sendbuf, scounts, sdispls) ->
      Array.blit sendbuf sdispls.(r) recvbuf rpos scounts.(r);
      for dst = 0 to p - 1 do
        if dst <> root then
          P2p.send ~ctx:Internal ~pos:sdispls.(dst) ~count:scounts.(dst) comm dt sendbuf ~dst ~tag
      done
  | None -> ignore (P2p.recv ~ctx:Internal ~pos:rpos ~count:rcount comm dt recvbuf ~src:root ~tag)

let alltoall comm dt ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "alltoall" count;
  let algo = select_alltoall comm dt count in
  Observe.coll ~count ~dt ~algo:(Algo.alltoall_name algo) comm "MPI_Alltoall" @@ fun () ->
  run_alltoall comm dt ~sendbuf ~recvbuf ~count algo ~tags:(draw4 comm)

let check_v_arrays what comm ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  check_layout what comm ~counts:scounts ~displs:sdispls ~names:"scounts/sdispls" sendbuf;
  check_layout what comm ~counts:rcounts ~displs:rdispls ~names:"rcounts/rdispls" recvbuf

let exchange_v comm dt ~tag ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  Coll_impl.post_all_exchange comm dt ~tag
    ~scount_of:(fun d -> scounts.(d))
    ~spos_of:(fun d -> sdispls.(d))
    ~rcount_of:(fun s -> rcounts.(s))
    ~rpos_of:(fun s -> rdispls.(s))
    ~sendbuf ~recvbuf

let alltoallv comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  Comm.check_active comm;
  check_v_arrays "alltoallv" comm ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  Observe.coll ~dt comm "MPI_Alltoallv" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  exchange_v comm dt ~tag ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls

(* The Alltoallw fallback (MPL's path): same linear posting as alltoallv,
   plus a derived-datatype setup per peer and the generic datatype engine
   on every message — the overheads that make MPL's variable collectives
   measurably slower and less scalable (Ghosh et al., paper Sec. II). *)
let alltoallw_style comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  Comm.check_active comm;
  check_v_arrays "alltoallw" comm ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  Observe.coll ~dt comm "MPI_Alltoallw" @@ fun () ->
  let p = Comm.size comm in
  let tag = Comm.next_collective_tag comm in
  let type_setup_cost = 0.3e-6 in
  let datatype_engine_cost = 0.4e-6 (* per message, send and receive side *) in
  Comm.compute comm (float_of_int (2 * p) *. (type_setup_cost +. datatype_engine_cost));
  exchange_v comm dt ~tag ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls

(* Reduce-scatter with equal block sizes: reduce to root, then scatter the
   blocks (the simple algorithm; tuned implementations exist but the cost
   shape — full reduction volume plus a scatter — is the same). *)
let reduce_scatter_block comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "reduce_scatter_block" count;
  Observe.coll ~count ~dt comm "MPI_Reduce_scatter_block" @@ fun () ->
  let p = Comm.size comm and r = Comm.rank comm in
  let total = p * count in
  let tag = Comm.next_collective_tag comm in
  let acc = Coll_impl.reduce_binomial comm dt op ~sendbuf ~pos:0 ~count:total ~root:0 ~tag in
  let stag = Comm.next_collective_tag comm in
  if r = 0 then begin
    Array.blit acc 0 recvbuf 0 count;
    for dst = 1 to p - 1 do
      P2p.send ~ctx:Internal ~pos:(dst * count) ~count comm dt acc ~dst ~tag:stag
    done
  end
  else ignore (P2p.recv ~ctx:Internal ~count comm dt recvbuf ~src:0 ~tag:stag)

(* Recursive-doubling inclusive scan. *)
let scan comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "scan" count;
  Observe.coll ~count ~dt comm "MPI_Scan" @@ fun () ->
  let p = Comm.size comm and r = Comm.rank comm in
  let tag = Comm.next_collective_tag comm in
  Array.blit sendbuf 0 recvbuf 0 count;
  if p > 1 && count > 0 then begin
    let partial = Array.sub sendbuf 0 count in
    let tmp = Array.copy partial in
    let mask = ref 1 in
    while !mask < p do
      let dst = r + !mask and src = r - !mask in
      let req =
        if dst < p then Some (P2p.isend ~ctx:Internal ~count comm dt partial ~dst ~tag) else None
      in
      if src >= 0 then begin
        ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src ~tag);
        (* tmp covers ranks below src inclusive: combine on the left. *)
        for i = 0 to count - 1 do
          partial.(i) <- Op.apply op tmp.(i) partial.(i);
          recvbuf.(i) <- Op.apply op tmp.(i) recvbuf.(i)
        done;
        Comm.compute comm (2.0 *. float_of_int count *. Op.cost_per_element op)
      end;
      (match req with Some req -> ignore (Request.wait req) | None -> ());
      mask := !mask lsl 1
    done
  end

let exscan comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "exscan" count;
  Observe.coll ~count ~dt comm "MPI_Exscan" @@ fun () ->
  let p = Comm.size comm and r = Comm.rank comm in
  let tag = Comm.next_collective_tag comm in
  if p > 1 && count > 0 then begin
    let partial = Array.sub sendbuf 0 count in
    let tmp = Array.copy partial in
    let have_result = ref false in
    let mask = ref 1 in
    while !mask < p do
      let dst = r + !mask and src = r - !mask in
      let req =
        if dst < p then Some (P2p.isend ~ctx:Internal ~count comm dt partial ~dst ~tag) else None
      in
      if src >= 0 then begin
        ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src ~tag);
        for i = 0 to count - 1 do
          partial.(i) <- Op.apply op tmp.(i) partial.(i);
          recvbuf.(i) <- (if !have_result then Op.apply op tmp.(i) recvbuf.(i) else tmp.(i))
        done;
        have_result := true;
        Comm.compute comm (2.0 *. float_of_int count *. Op.cost_per_element op)
      end;
      (match req with Some req -> ignore (Request.wait req) | None -> ());
      mask := !mask lsl 1
    done
  end

(* Non-blocking collectives: a helper fiber (standing in for an MPI
   progress thread) runs the blocking algorithm and completes the request
   [req].  Internal tags — and the algorithm choice — are fixed at call
   time so they line up across ranks regardless of how the helper fibers
   interleave. *)
let spawn_collective comm ~label req body =
  let _ : Engine.fiber =
    Engine.spawn (Comm.world comm).World.engine ~label (fun () ->
        match body () with
        | () -> Request.complete req { source = -1; tag = 0; count = 0 }
        | exception ((Errors.Process_failed _ | Errors.Comm_revoked) as e) ->
            (* failure injection: surface on the waiter (ULFM semantics)
               instead of tearing down the engine from a helper fiber *)
            Request.abort req e)
  in
  req

let new_request comm = Request.create (Comm.world comm).World.engine

let ibarrier comm =
  Comm.check_active comm;
  let req = new_request comm in
  Observe.coll ~track:(Request req) comm "MPI_Ibarrier" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  spawn_collective comm ~label:"ibarrier" req (fun () -> Coll_impl.dissemination comm ~tag)

let ibcast ?(pos = 0) ?count comm dt buf ~root =
  Comm.check_active comm;
  check_root comm root;
  let count = match count with Some c -> c | None -> Array.length buf - pos in
  check_count "ibcast" count;
  let algo = select_bcast comm dt count and req = new_request comm in
  Observe.coll ~root ~count ~dt ~algo:(Algo.bcast_name algo) ~track:(Request req) comm
    "MPI_Ibcast"
  @@ fun () ->
  let tags = draw2 comm in
  spawn_collective comm ~label:"ibcast" req (fun () ->
      run_bcast comm dt buf pos count ~root algo ~tags)

(* Persistent collective (MPI-4 §6.13): everything rank-coordinated —
   ordering check, tag draw, algorithm selection — happens once at init,
   so every round reuses the same tags and algorithm.  Rounds stay
   separable without fresh tags because each pair's messages keep FIFO
   order and all ranks start rounds in the same order (the MPI contract
   for persistent collectives). *)
let bcast_init ?(pos = 0) ?count comm dt buf ~root =
  Comm.check_active comm;
  check_root comm root;
  let count = match count with Some c -> c | None -> Array.length buf - pos in
  check_count "bcast_init" count;
  check_window "bcast_init" "buf" buf pos count;
  let w = Comm.world comm in
  let algo = select_bcast comm dt count and tags = draw2 comm in
  let start h =
    Comm.check_active comm;
    Observe.span ~ctx:User Coll comm "MPI_Start" @@ fun () ->
    let req = Persist.request h in
    let _ : Engine.fiber =
      Engine.spawn w.World.engine ~label:"bcast_init" (fun () ->
          run_bcast comm dt buf pos count ~root algo ~tags;
          Request.complete req { source = -1; tag = 0; count })
    in
    ()
  in
  let h =
    Persist.make w.World.engine ~op:"MPI_Bcast_init"
      ~around_wait:(fun _ f -> Observe.span ~ctx:User Coll comm "MPI_Wait" f)
      start
  in
  Observe.coll ~root ~count ~dt ~algo:(Algo.bcast_name algo) ~track:(Persistent h) comm
    "MPI_Bcast_init" (fun () -> h)

let iallreduce comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "iallreduce" count;
  let algo = select_allreduce comm dt op count and req = new_request comm in
  Observe.coll ~count ~dt ~algo:(Algo.allreduce_name algo) ~track:(Request req) comm
    "MPI_Iallreduce"
  @@ fun () ->
  let tags = draw4 comm in
  spawn_collective comm ~label:"iallreduce" req (fun () ->
      run_allreduce comm dt op ~sendbuf ~pos:0 ~recvbuf ~count algo ~tags)

let ialltoallv comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  Comm.check_active comm;
  check_v_arrays "ialltoallv" comm ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  let req = new_request comm in
  Observe.coll ~dt ~track:(Request req) comm "MPI_Ialltoallv" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  spawn_collective comm ~label:"ialltoallv" req (fun () ->
      exchange_v comm dt ~tag ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls)

(* ------------------------------------------------------------------ *)
(* Communicator management.                                            *)
(* ------------------------------------------------------------------ *)

(* Communicator handles travel between ranks as ordinary (tiny) messages;
   a dedicated opaque datatype keeps that honest in the cost model. *)
let dt_comm : World.comm_shared Datatype.t = Datatype.custom ~name:"MPI_Comm" ~extent:16 ()

(* The leader creates the new shared state and distributes it to the other
   members over the parent communicator. *)
let distribute_shared comm ~members ~tag make_shared =
  let r = Comm.rank comm in
  let leader = members.(0) in
  if r = leader then begin
    let shared = make_shared () in
    let box = [| shared |] in
    Array.iter
      (fun m -> if m <> leader then P2p.send ~ctx:Internal comm dt_comm box ~dst:m ~tag)
      members;
    shared
  end
  else begin
    let box = [| Comm.shared comm |] in
    ignore (P2p.recv ~ctx:Internal comm dt_comm box ~src:leader ~tag);
    box.(0)
  end

let position a x =
  let n = Array.length a in
  let rec go i = if i >= n then Errors.usage "internal: rank not in group" else if a.(i) = x then i else go (i + 1) in
  go 0

let dup comm =
  Comm.check_active comm;
  Observe.coll comm "MPI_Comm_dup" @@ fun () ->
  let w = Comm.world comm in
  let tag = Comm.next_collective_tag comm in
  let members = Array.init (Comm.size comm) Fun.id in
  let shared =
    distribute_shared comm ~members ~tag (fun () -> World.fresh_comm w (Array.copy (Comm.group comm)))
  in
  Comm.make w shared ~rank:(Comm.rank comm)

let split comm ~color ~key =
  Comm.check_active comm;
  Observe.coll comm "MPI_Comm_split" @@ fun () ->
  let w = Comm.world comm in
  let p = Comm.size comm and r = Comm.rank comm in
  let dt = Datatype.triple Datatype.int Datatype.int Datatype.int in
  let entries = Array.make p (0, 0, 0) in
  let tag = Comm.next_collective_tag comm in
  Coll_impl.allgather_bruck comm dt ~recvbuf:entries ~rpos:0 ~count:1 ~tag ~my_block_pos:0
    ~my_block_buf:[| (color, key, r) |];
  let dist_tag = Comm.next_collective_tag comm in
  if color < 0 then None
  else begin
    let members =
      entries |> Array.to_list
      |> List.filter (fun (c, _, _) -> c = color)
      |> List.sort (fun (_, k1, r1) (_, k2, r2) -> compare (k1, r1) (k2, r2))
      |> List.map (fun (_, _, rank) -> rank)
      |> Array.of_list
    in
    let shared =
      distribute_shared comm ~members ~tag:dist_tag (fun () ->
          World.fresh_comm w (Array.map (Comm.world_rank_of comm) members))
    in
    Some (Comm.make w shared ~rank:(position members r))
  end

(* MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): one communicator per
   shared-memory node, built by splitting on the network model's placement
   map.  On a flat fabric every rank is its own node, so the result is a
   singleton communicator — the MPI-correct degenerate answer. *)
let split_by_node ?(key = 0) comm =
  let w = Comm.world comm in
  let node =
    Simnet.Netmodel.node_of w.World.net (Comm.world_rank_of comm (Comm.rank comm))
  in
  match split comm ~color:node ~key with
  | Some c -> c
  | None -> assert false (* node ids are never negative *)
