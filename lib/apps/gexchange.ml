(* One primitive, three transports (paper Fig. 10): NBX sparse
   all-to-all, dense tuned alltoallv, MPI-3 neighborhood collectives.
   All variants deliver the same (source, payload) stream, sorted by
   source, with self-addressed buckets spliced in locally. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec

type variant = Sparse | Dense | Neighbor

let variant_name = function Sparse -> "sparse" | Dense -> "dense" | Neighbor -> "neighbor"
let all_variants = [ Sparse; Dense; Neighbor ]

type t = { kc : K.t; partners : int array; topo : Mpisim.Topology.t }

let create kc ~partners =
  let p = K.size kc and me = K.rank kc in
  let flags = Array.make p 0 in
  Array.iter (fun d -> if d <> me then flags.(d) <- 1) partners;
  (* symmetrize: rank i hears from rank j whether j listed i *)
  let listed_by = K.alltoall kc D.int ~send_buf:(V.of_array flags) in
  let sym = V.create () in
  for r = 0 to p - 1 do
    if r <> me && (flags.(r) = 1 || V.get listed_by r = 1) then V.push sym r
  done;
  let sym = V.to_array sym in
  let topo =
    Mpisim.Topology.dist_graph_create_adjacent (K.raw kc) ~sources:sym ~destinations:sym
  in
  { kc; partners = sym; topo }

(* Normalize the message list into one bucket per destination rank
   (payload order preserved), splitting off the self-addressed bucket. *)
let buckets t ~messages =
  let p = K.size t.kc and me = K.rank t.kc in
  let out : 'a V.t option array = Array.make p None in
  List.iter
    (fun (dst, v) ->
      if dst < 0 || dst >= p then Mpisim.Errors.usage "Gexchange: destination %d out of range" dst;
      if V.length v > 0 then
        match out.(dst) with
        | Some b -> V.append b v
        | None -> out.(dst) <- Some (V.copy v))
    messages;
  Array.iteri
    (fun dst b ->
      match b with
      | Some _ when dst <> me && not (Array.exists (fun x -> x = dst) t.partners) ->
          Mpisim.Errors.usage "Gexchange: message crosses an undeclared edge to rank %d" dst
      | _ -> ())
    out;
  let self = out.(me) in
  out.(me) <- None;
  (out, self)

(* Splice the self bucket into the received stream at its sorted spot. *)
let deliver t ~self received =
  let me = K.rank t.kc in
  let received = List.filter (fun (_, v) -> V.length v > 0) received in
  match self with
  | None -> received
  | Some v ->
      let rec ins = function
        | (src, _) :: _ as rest when src > me -> (me, v) :: rest
        | pair :: rest -> pair :: ins rest
        | [] -> [ (me, v) ]
      in
      ins received

let exchange_sparse t dt out =
  let messages = ref [] in
  for dst = K.size t.kc - 1 downto 0 do
    match out.(dst) with Some v -> messages := (dst, v) :: !messages | None -> ()
  done;
  Kamping_plugins.Sparse_alltoall.exchange t.kc dt ~messages:!messages

let exchange_dense t dt out =
  let p = K.size t.kc in
  let send_counts = Array.make p 0 in
  let send_buf = V.create () in
  Array.iteri
    (fun dst b ->
      match b with
      | Some v ->
          send_counts.(dst) <- V.length v;
          V.append send_buf v
      | None -> ())
    out;
  let res = K.alltoallv ~recv_counts_out:true t.kc dt ~send_buf ~send_counts in
  let rcounts = match res.K.recv_counts with Some c -> c | None -> assert false in
  let received = ref [] and pos = ref 0 in
  for src = 0 to p - 1 do
    if rcounts.(src) > 0 then received := (src, V.sub res.K.recv_buf !pos rcounts.(src)) :: !received;
    pos := !pos + rcounts.(src)
  done;
  List.rev !received

let exchange_neighbor t dt out =
  let degree = Array.length t.partners in
  let scounts = Array.make degree 0 in
  let sendbuf = V.create () in
  Array.iteri
    (fun i dst ->
      match out.(dst) with
      | Some v ->
          scounts.(i) <- V.length v;
          V.append sendbuf v
      | None -> ())
    t.partners;
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let rcounts = Array.make degree 0 in
  Mpisim.Topology.neighbor_alltoall t.topo D.int ~sendbuf:scounts ~recvbuf:rcounts ~count:1;
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = if degree = 0 then 0 else rdispls.(degree - 1) + rcounts.(degree - 1) in
  let recvbuf =
    if total = 0 then [||]
    else
      let sample =
        match D.default_elt dt with
        | Some x -> x
        | None when V.length sendbuf > 0 -> V.get sendbuf 0
        | None -> Mpisim.Errors.usage "Gexchange: datatype needs a default element"
      in
      Array.make total sample
  in
  Mpisim.Topology.neighbor_alltoallv t.topo dt ~sendbuf:(V.unsafe_data sendbuf) ~scounts ~sdispls
    ~recvbuf ~rcounts ~rdispls;
  (* partners are ascending, so the per-partner slices come out sorted *)
  let received = ref [] in
  for i = degree - 1 downto 0 do
    if rcounts.(i) > 0 then
      received := (t.partners.(i), V.sub (V.unsafe_of_array recvbuf total) rdispls.(i) rcounts.(i)) :: !received
  done;
  !received

let exchange t variant dt ~messages =
  let out, self = buckets t ~messages in
  let received =
    match variant with
    | Sparse -> exchange_sparse t dt out
    | Dense -> exchange_dense t dt out
    | Neighbor -> exchange_neighbor t dt out
  in
  deliver t ~self received

let buckets fill =
  let tbl = Hashtbl.create 8 in
  fill (fun dst x ->
      match Hashtbl.find_opt tbl dst with
      | Some v -> V.push v x
      | None -> Hashtbl.add tbl dst (V.make 1 x));
  Hashtbl.fold (fun dst v acc -> (dst, v) :: acc) tbl []
