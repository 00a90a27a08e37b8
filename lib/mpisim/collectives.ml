module Engine = Simnet.Engine
module Algo = Coll_algos.Algo
module Select = Coll_algos.Select

let check_root comm root =
  if root < 0 || root >= Comm.size comm then
    Errors.usage "root %d out of range for communicator of size %d" root (Comm.size comm)

let check_count what count =
  if count < 0 then Errors.usage "%s: negative count %d" what count

(* [buf]'s window [pos, pos + count) must lie inside it. *)
let check_window what name dt buf pos count =
  let len = Datatype.length dt buf in
  if pos < 0 || pos + count > len then
    Errors.usage "%s: %s window [%d, %d) exceeds its length %d" what name pos (pos + count) len

(* A v-collective's layout: one count and one displacement per rank, none
   negative, every block inside [buf]. *)
let check_layout what comm ~counts ~displs ~names dt buf =
  let p = Comm.size comm and len = Datatype.length dt buf in
  if Array.length counts <> p || Array.length displs <> p then
    Errors.usage "%s: %s must have one entry per rank" what names;
  for i = 0 to p - 1 do
    let c = counts.(i) and d = displs.(i) in
    if c < 0 || d < 0 then
      Errors.usage "%s: %s has a negative entry for rank %d (%d, %d)" what names i c d;
    if d + c > len then
      Errors.usage "%s: %s block of rank %d, [%d, %d), exceeds the buffer of length %d" what
        names i d (d + c) len
  done

let exclusive_scan counts =
  let d = Array.make (Array.length counts) 0 in
  for i = 1 to Array.length counts - 1 do
    d.(i) <- d.(i - 1) + counts.(i - 1)
  done;
  d

(* A buffer only the root uses: required and window-checked there; other
   ranks get an empty stand-in. *)
let root_buffer what comm ~root ~name dt buf pos count =
  if Comm.rank comm <> root then Datatype.empty dt
  else
    match buf with
    | Some b ->
        check_window what name dt b pos count;
        b
    | None -> Errors.usage "%s: the root rank needs %s" what name

(* A v-collective's root-only buffer and layout, likewise. *)
let root_layout what comm ~root ~names ~needs dt = function
  | _ when Comm.rank comm <> root -> (Datatype.empty dt, [||], [||])
  | Some b, Some counts, Some displs ->
      check_layout what comm ~counts ~displs ~names dt b;
      (b, counts, displs)
  | _ -> Errors.usage "%s: the root rank needs %s" what needs

(* A broadcast's element count (the rest of [buf] unless given), checked
   against the buffer. *)
let bcast_count what dt buf pos count =
  let count = match count with Some c -> c | None -> Datatype.length dt buf - pos in
  check_count what count;
  check_window what "buf" dt buf pos count;
  count

(* A reduction's [count]-element send and receive windows. *)
let check_reduce_buffers what dt ~sendbuf ~pos ~recvbuf ~count =
  check_count what count;
  check_window what "sendbuf" dt sendbuf pos count;
  check_window what "recvbuf" dt recvbuf 0 count

(* ------------------------------------------------------------------ *)
(* Algorithm selection.                                                *)
(* ------------------------------------------------------------------ *)

(* Selection inputs are identical on every rank of the communicator — the
   tuning table lives in the world, the network parameters come from the
   communicator's group, and the call arguments must agree anyway — so all
   ranks pick the same algorithm without communicating. *)
let tuning comm = (Comm.world comm).World.tuning

(* Planning profile of the communicator's group, computed at creation
   ([hier_for] is [None] wherever the placement has no hierarchy, so
   selection there stays exactly pre-topology). *)
let params_for comm = (Comm.shared comm).World.net_params
let hier_for comm = (Comm.shared comm).World.hier

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

(* From the counts only: displacements are rank-local, and a choice that
   depended on them could differ between ranks. *)
let select_allgatherv comm dt rcounts =
  Select.allgatherv (tuning comm) ~cid:(Comm.id comm) (params_for comm) ~p:(Comm.size comm)
    ~max_bytes:(Datatype.bytes dt (Array.fold_left max 0 rcounts))
    ~total_bytes:(Datatype.bytes dt (Array.fold_left ( + ) 0 rcounts))

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
  let count = bcast_count "bcast" dt buf pos count in
  let algo = select_bcast comm dt count in
  Observe.coll ~root ~count ~dt ~algo:(Algo.bcast_name algo) comm "MPI_Bcast" @@ fun () ->
  Coll_impl.bcast comm dt buf pos count ~root algo ~tags:(draw2 comm)

let reduce ?(pos = 0) ?recvbuf comm dt op ~sendbuf ~count ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "reduce" count;
  check_window "reduce" "sendbuf" dt sendbuf pos count;
  let recvbuf = root_buffer "reduce" comm ~root ~name:"recvbuf" dt recvbuf 0 count in
  Observe.coll ~root ~count ~dt comm "MPI_Reduce" @@ fun () ->
  Coll_impl.reduce comm dt op ~sendbuf ~pos ~recvbuf ~count ~root
    ~tag:(Comm.next_collective_tag comm)

let allreduce ?(pos = 0) comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_reduce_buffers "allreduce" dt ~sendbuf ~pos ~recvbuf ~count;
  let algo = select_allreduce comm dt op count in
  Observe.coll ~count ~dt ~algo:(Algo.allreduce_name algo) comm "MPI_Allreduce" @@ fun () ->
  Coll_impl.allreduce comm dt op ~sendbuf ~pos ~recvbuf ~count algo ~tags:(draw4 comm)

let allgather ?(inplace = false) ?(spos = 0) ?(rpos = 0) comm dt ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "allgather" count;
  if not inplace then check_window "allgather" "sendbuf" dt sendbuf spos count;
  check_window "allgather" "recvbuf" dt recvbuf rpos (Comm.size comm * count);
  let algo = select_allgather comm dt count in
  Observe.coll ~count ~dt ~algo:(Algo.allgather_name algo) comm "MPI_Allgather" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  let my_block_buf, my_block_pos =
    if inplace then (recvbuf, rpos + (Comm.rank comm * count)) else (sendbuf, spos)
  in
  Coll_impl.allgather comm dt ~recvbuf ~rpos ~count ~my_block_pos ~my_block_buf algo ~tag

let allgatherv ?(inplace = false) ?(spos = 0) comm dt ~sendbuf ~scount ~recvbuf ~rcounts ~rdispls =
  Comm.check_active comm;
  let r = Comm.rank comm in
  check_layout "allgatherv" comm ~counts:rcounts ~displs:rdispls ~names:"rcounts/rdispls" dt
    recvbuf;
  if scount <> rcounts.(r) then
    Errors.usage "allgatherv: send count %d disagrees with rcounts.(%d) = %d" scount r rcounts.(r);
  if not inplace then check_window "allgatherv" "sendbuf" dt sendbuf spos scount;
  let algo = select_allgatherv comm dt rcounts in
  Observe.coll ~dt ~algo:(Algo.allgatherv_name algo) comm "MPI_Allgatherv" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  if not inplace then Datatype.blit dt sendbuf spos recvbuf rdispls.(r) scount;
  Coll_impl.allgatherv comm dt ~recvbuf ~pos_of:(Array.get rdispls)
    ~count_of:(Array.get rcounts) algo ~tag

let gather ?(spos = 0) ?(rpos = 0) ?recvbuf comm dt ~sendbuf ~count ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "gather" count;
  check_window "gather" "sendbuf" dt sendbuf spos count;
  let recvbuf =
    root_buffer "gather" comm ~root ~name:"recvbuf" dt recvbuf rpos (Comm.size comm * count)
  in
  Observe.coll ~root ~count ~dt comm "MPI_Gather" @@ fun () ->
  Coll_impl.gather_linear comm dt ~sendbuf ~spos ~scount:count ~recvbuf
    ~rpos_of:(fun i -> rpos + (i * count))
    ~rcount_of:(fun _ -> count)
    ~root ~tag:(Comm.next_collective_tag comm)

let gatherv ?(spos = 0) ?recvbuf ?rcounts ?rdispls comm dt ~sendbuf ~scount ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "gatherv" scount;
  check_window "gatherv" "sendbuf" dt sendbuf spos scount;
  let recvbuf, rcounts, rdispls =
    root_layout "gatherv" comm ~root ~names:"rcounts/rdispls"
      ~needs:"recvbuf, rcounts and rdispls" dt
      (recvbuf, rcounts, rdispls)
  in
  Observe.coll ~root ~dt comm "MPI_Gatherv" @@ fun () ->
  Coll_impl.gather_linear comm dt ~sendbuf ~spos ~scount ~recvbuf ~rpos_of:(Array.get rdispls)
    ~rcount_of:(Array.get rcounts) ~root ~tag:(Comm.next_collective_tag comm)

let scatter ?(spos = 0) ?(rpos = 0) ?sendbuf comm dt ~recvbuf ~count ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "scatter" count;
  check_window "scatter" "recvbuf" dt recvbuf rpos count;
  let sendbuf =
    root_buffer "scatter" comm ~root ~name:"sendbuf" dt sendbuf spos (Comm.size comm * count)
  in
  Observe.coll ~root ~count ~dt comm "MPI_Scatter" @@ fun () ->
  Coll_impl.scatter_linear comm dt ~sendbuf
    ~spos_of:(fun i -> spos + (i * count))
    ~scount_of:(fun _ -> count)
    ~recvbuf ~rpos ~rcount:count ~root ~tag:(Comm.next_collective_tag comm)

let scatterv ?(rpos = 0) ?sendbuf ?scounts ?sdispls comm dt ~recvbuf ~rcount ~root =
  Comm.check_active comm;
  check_root comm root;
  check_count "scatterv" rcount;
  check_window "scatterv" "recvbuf" dt recvbuf rpos rcount;
  let sendbuf, scounts, sdispls =
    root_layout "scatterv" comm ~root ~names:"scounts/sdispls"
      ~needs:"sendbuf, scounts and sdispls" dt
      (sendbuf, scounts, sdispls)
  in
  Observe.coll ~root ~dt comm "MPI_Scatterv" @@ fun () ->
  Coll_impl.scatter_linear comm dt ~sendbuf ~spos_of:(Array.get sdispls)
    ~scount_of:(Array.get scounts) ~recvbuf ~rpos ~rcount ~root
    ~tag:(Comm.next_collective_tag comm)

let alltoall comm dt ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "alltoall" count;
  check_window "alltoall" "sendbuf" dt sendbuf 0 (Comm.size comm * count);
  check_window "alltoall" "recvbuf" dt recvbuf 0 (Comm.size comm * count);
  let algo = select_alltoall comm dt count in
  Observe.coll ~count ~dt ~algo:(Algo.alltoall_name algo) comm "MPI_Alltoall" @@ fun () ->
  Coll_impl.alltoall comm dt ~sendbuf ~recvbuf ~count algo ~tags:(draw4 comm)

let check_v_arrays what comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  check_layout what comm ~counts:scounts ~displs:sdispls ~names:"scounts/sdispls" dt sendbuf;
  check_layout what comm ~counts:rcounts ~displs:rdispls ~names:"rcounts/rdispls" dt recvbuf

let exchange_v comm dt ~tag ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  Coll_impl.post_all_exchange comm dt ~tag
    ~scount_of:(fun d -> scounts.(d))
    ~spos_of:(fun d -> sdispls.(d))
    ~rcount_of:(fun s -> rcounts.(s))
    ~rpos_of:(fun s -> rdispls.(s))
    ~sendbuf ~recvbuf

let alltoallv comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  Comm.check_active comm;
  check_v_arrays "alltoallv" comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  Observe.coll ~dt comm "MPI_Alltoallv" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  exchange_v comm dt ~tag ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls

(* The Alltoallw fallback (MPL's path): same linear posting as alltoallv,
   plus a derived-datatype setup per peer and the generic datatype engine
   on every message — the overheads that make MPL's variable collectives
   measurably slower and less scalable (Ghosh et al., paper Sec. II). *)
let alltoallw_style comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  Comm.check_active comm;
  check_v_arrays "alltoallw" comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  Observe.coll ~dt comm "MPI_Alltoallw" @@ fun () ->
  let p = Comm.size comm in
  let tag = Comm.next_collective_tag comm in
  let type_setup_cost = 0.3e-6 in
  let datatype_engine_cost = 0.4e-6 (* per message, send and receive side *) in
  Comm.compute comm (float_of_int (2 * p) *. (type_setup_cost +. datatype_engine_cost));
  exchange_v comm dt ~tag ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls

let reduce_scatter_block comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_count "reduce_scatter_block" count;
  check_window "reduce_scatter_block" "sendbuf" dt sendbuf 0 (Comm.size comm * count);
  check_window "reduce_scatter_block" "recvbuf" dt recvbuf 0 count;
  Observe.coll ~count ~dt comm "MPI_Reduce_scatter_block" @@ fun () ->
  let tag, tag2 = draw2 comm in
  Coll_impl.reduce_scatter_block comm dt op ~sendbuf ~recvbuf ~count ~tag ~tag2

let scan comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_reduce_buffers "scan" dt ~sendbuf ~pos:0 ~recvbuf ~count;
  Observe.coll ~count ~dt comm "MPI_Scan" @@ fun () ->
  Coll_impl.prefix_scan comm dt op ~sendbuf ~recvbuf ~count
    ~tag:(Comm.next_collective_tag comm) ~inclusive:true

let exscan comm dt op ~sendbuf ~recvbuf ~count =
  Comm.check_active comm;
  check_reduce_buffers "exscan" dt ~sendbuf ~pos:0 ~recvbuf ~count;
  Observe.coll ~count ~dt comm "MPI_Exscan" @@ fun () ->
  Coll_impl.prefix_scan comm dt op ~sendbuf ~recvbuf ~count
    ~tag:(Comm.next_collective_tag comm) ~inclusive:false

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
  let count = bcast_count "ibcast" dt buf pos count in
  let algo = select_bcast comm dt count and req = new_request comm in
  Observe.coll ~root ~count ~dt ~algo:(Algo.bcast_name algo) ~track:(Request req) comm
    "MPI_Ibcast"
  @@ fun () ->
  let tags = draw2 comm in
  spawn_collective comm ~label:"ibcast" req (fun () ->
      Coll_impl.bcast comm dt buf pos count ~root algo ~tags)

(* Persistent collective (MPI-4 §6.13): everything rank-coordinated —
   ordering check, tag draw, algorithm selection — happens once at init,
   so every round reuses the same tags and algorithm.  Rounds stay
   separable without fresh tags because each pair's messages keep FIFO
   order and all ranks start rounds in the same order (the MPI contract
   for persistent collectives). *)
let bcast_init ?(pos = 0) ?count comm dt buf ~root =
  Comm.check_active comm;
  check_root comm root;
  let count = bcast_count "bcast_init" dt buf pos count in
  let w = Comm.world comm in
  let algo = select_bcast comm dt count and tags = draw2 comm in
  let start h =
    Comm.check_active comm;
    Observe.span ~ctx:User Coll comm "MPI_Start" @@ fun () ->
    let req = Persist.request h in
    let _ : Engine.fiber =
      Engine.spawn w.World.engine ~label:"bcast_init" (fun () ->
          Coll_impl.bcast comm dt buf pos count ~root algo ~tags;
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
  check_reduce_buffers "iallreduce" dt ~sendbuf ~pos:0 ~recvbuf ~count;
  let algo = select_allreduce comm dt op count and req = new_request comm in
  Observe.coll ~count ~dt ~algo:(Algo.allreduce_name algo) ~track:(Request req) comm
    "MPI_Iallreduce"
  @@ fun () ->
  let tags = draw4 comm in
  spawn_collective comm ~label:"iallreduce" req (fun () ->
      Coll_impl.allreduce comm dt op ~sendbuf ~pos:0 ~recvbuf ~count algo ~tags)

let ialltoallv comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  Comm.check_active comm;
  check_v_arrays "ialltoallv" comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  let req = new_request comm in
  Observe.coll ~dt ~track:(Request req) comm "MPI_Ialltoallv" @@ fun () ->
  let tag = Comm.next_collective_tag comm in
  spawn_collective comm ~label:"ialltoallv" req (fun () ->
      exchange_v comm dt ~tag ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls)

(* ------------------------------------------------------------------ *)
(* Communicator management.                                            *)
(* ------------------------------------------------------------------ *)

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
    Coll_impl.distribute_shared comm ~members ~tag (fun () -> World.fresh_comm w (Array.copy (Comm.group comm)))
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
  Coll_impl.allgather comm dt ~recvbuf:entries ~rpos:0 ~count:1 ~my_block_pos:0
    ~my_block_buf:[| (color, key, r) |] Ag_bruck ~tag;
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
      Coll_impl.distribute_shared comm ~members ~tag:dist_tag (fun () ->
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
