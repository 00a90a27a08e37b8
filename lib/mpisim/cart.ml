type t = { comm : Comm.t; dims : int array; periodic : bool array }

let dims_create ~nodes ~ndims =
  if nodes <= 0 || ndims <= 0 then Errors.usage "dims_create: positive arguments required";
  Coll_algos.Cost.dims_create ~nodes ~ndims

let create comm ~dims ~periodic =
  let product = Array.fold_left ( * ) 1 dims in
  if product <> Comm.size comm then
    Errors.usage "Cart.create: grid of %d cells does not match communicator size %d" product
      (Comm.size comm);
  if Array.length periodic <> Array.length dims then
    Errors.usage "Cart.create: periodic must have one entry per dimension";
  Observe.call Comm_mgmt comm "MPI_Cart_create" @@ fun () ->
  Collectives.barrier comm;
  { comm; dims = Array.copy dims; periodic = Array.copy periodic }

let comm t = t.comm

(* row-major: the last dimension varies fastest, as in MPI *)
let coords t rank =
  if rank < 0 || rank >= Comm.size t.comm then Errors.usage "Cart.coords: bad rank %d" rank;
  let nd = Array.length t.dims in
  let out = Array.make nd 0 in
  let rest = ref rank in
  for d = nd - 1 downto 0 do
    out.(d) <- !rest mod t.dims.(d);
    rest := !rest / t.dims.(d)
  done;
  out

let rank_of t coords =
  if Array.length coords <> Array.length t.dims then
    Errors.usage "Cart.rank_of: coordinate arity mismatch";
  let rank = ref 0 in
  Array.iteri
    (fun d c ->
      let c =
        if t.periodic.(d) then ((c mod t.dims.(d)) + t.dims.(d)) mod t.dims.(d)
        else if c < 0 || c >= t.dims.(d) then
          Errors.usage "Cart.rank_of: coordinate %d out of range in dimension %d" c d
        else c
      in
      rank := (!rank * t.dims.(d)) + c)
    coords;
  !rank

let neighbor t ~dim ~disp =
  let my = coords t (Comm.rank t.comm) in
  let c = my.(dim) + disp in
  if t.periodic.(dim) then begin
    let shifted = Array.copy my in
    shifted.(dim) <- c;
    Some (rank_of t shifted)
  end
  else if c < 0 || c >= t.dims.(dim) then None
  else begin
    let shifted = Array.copy my in
    shifted.(dim) <- c;
    Some (rank_of t shifted)
  end

let shift t ~dim ~disp =
  if dim < 0 || dim >= Array.length t.dims then Errors.usage "Cart.shift: bad dimension %d" dim;
  (neighbor t ~dim ~disp:(-disp), neighbor t ~dim ~disp)

let halo_exchange t dt ~dim ~send_low ~send_high ~recv_low ~recv_high =
  let low = neighbor t ~dim ~disp:(-1) and high = neighbor t ~dim ~disp:1 in
  Observe.call Comm_mgmt t.comm "MPI_Halo_exchange" @@ fun () ->
  let tag_up = Comm.next_collective_tag t.comm in
  let tag_down = Comm.next_collective_tag t.comm in
  let reqs = ref [] in
  (* post receives first, then sends: deadlock-free in any grid *)
  (match low with
  | Some src -> reqs := P2p.irecv ~ctx:Internal t.comm dt recv_low ~src ~tag:tag_up :: !reqs
  | None -> ());
  (match high with
  | Some src -> reqs := P2p.irecv ~ctx:Internal t.comm dt recv_high ~src ~tag:tag_down :: !reqs
  | None -> ());
  (match high with
  | Some dst -> P2p.send ~ctx:Internal t.comm dt send_high ~dst ~tag:tag_up
  | None -> ());
  (match low with
  | Some dst -> P2p.send ~ctx:Internal t.comm dt send_low ~dst ~tag:tag_down
  | None -> ());
  ignore (Request.wait_all !reqs);
  List.length !reqs
