module V = Ds.Vec
module D = Mpisim.Datatype

type t = {
  comm : Kamping.Comm.t;
  grid_dims : int array;
  coords : int array;  (* my position *)
  mutable seq : int;
}

(* row-major, last dimension fastest (as in Cart) *)
let coords_of dims rank =
  let nd = Array.length dims in
  let out = Array.make nd 0 in
  let rest = ref rank in
  for d = nd - 1 downto 0 do
    out.(d) <- !rest mod dims.(d);
    rest := !rest / dims.(d)
  done;
  out

let rank_of dims coords =
  let rank = ref 0 in
  Array.iteri (fun d c -> rank := (!rank * dims.(d)) + c) coords;
  ignore dims;
  !rank

let create ?dims comm ~ndims =
  let p = Kamping.Comm.size comm in
  let grid_dims =
    match dims with Some d -> Array.copy d | None -> Mpisim.Cart.dims_create ~nodes:p ~ndims
  in
  if Array.fold_left ( * ) 1 grid_dims <> p then
    Mpisim.Errors.usage "Hypergrid.create: dims product does not equal the communicator size";
  Kamping.Comm.barrier comm;
  { comm; grid_dims; coords = coords_of grid_dims (Kamping.Comm.rank comm); seq = 0 }

let max_partners t = Array.fold_left (fun acc d -> acc + (d - 1)) 0 t.grid_dims

(* partners of one phase: ranks differing from me only in dimension [dim] *)
let phase_partners t ~dim =
  Array.init t.grid_dims.(dim) (fun c ->
      let coords = Array.copy t.coords in
      coords.(dim) <- c;
      rank_of t.grid_dims coords)

let alltoallv t dt ~send_buf ~send_counts =
  let comm = t.comm in
  let p = Kamping.Comm.size comm in
  if Array.length send_counts <> p then
    Mpisim.Errors.usage "hypergrid: send_counts must have one entry per rank";
  let fill = Indirect.default_fill ~who:"hypergrid" dt in
  t.seq <- t.seq + 1;
  let nd = Array.length t.grid_dims in
  let base = 0x680000 + (2 * nd * t.seq) in
  (* envelope: (source, destination, element) *)
  let dt_routed = D.pair (D.pair D.int D.int) dt in
  let r = Kamping.Comm.rank comm in
  (* initial holdings: my own outgoing messages *)
  let current = ref (V.create ()) in
  let pos = ref 0 in
  Array.iteri
    (fun dst count ->
      for k = 0 to count - 1 do
        V.push !current ((r, dst), V.get send_buf (!pos + k))
      done;
      pos := !pos + count)
    send_counts;
  Kamping.Comm.compute comm (Kamping.Costs.linear (V.length send_buf));
  (* d hops: fix destination coordinate [dim] at hop [dim] *)
  for dim = 0 to nd - 1 do
    let partners = phase_partners t ~dim in
    let buckets : (int, ((int * int) * 'a) V.t) Hashtbl.t = Hashtbl.create 8 in
    V.iter
      (fun (((_, dst), _) as routed) ->
        let dcoords = coords_of t.grid_dims dst in
        let icoords = Array.copy t.coords in
        for d = 0 to dim do
          icoords.(d) <- dcoords.(d)
        done;
        let intermediate = rank_of t.grid_dims icoords in
        match Hashtbl.find_opt buckets intermediate with
        | Some b -> V.push b routed
        | None -> Hashtbl.add buckets intermediate (V.of_list [ routed ]))
      !current;
    Kamping.Comm.compute comm (Kamping.Costs.linear (V.length !current));
    let received =
      Indirect.phase_exchange comm dt_routed ~fill:((0, 0), fill) ~send_to:partners
        ~recv_from:partners ~outgoing:(Hashtbl.find_opt buckets)
        ~count_tag:(base + (2 * dim))
        ~data_tag:(base + (2 * dim) + 1)
    in
    let next = V.create () in
    List.iter (fun (_, arr) -> Array.iter (V.push next) arr) received;
    current := next
  done;
  (* everything now lives at its destination: group by source *)
  Indirect.group_by_source comm ~fill ~source:(fun ((s, _), _) -> s) ~value:snd !current
