module C = Mpisim.Collectives
module D = Mpisim.Datatype

type comm = Mpisim.Comm.t

let wrap c = c
let rank = Mpisim.Comm.rank
let size = Mpisim.Comm.size

let all_gather comm dt v =
  let out = Array.make (size comm) v in
  C.allgather comm dt ~sendbuf:[| v |] ~recvbuf:out ~count:1;
  out

let all_gather_block comm dt block =
  let count = Array.length block in
  if count = 0 then [||]
  else begin
    let out = Array.make (size comm * count) block.(0) in
    C.allgather comm dt ~sendbuf:block ~recvbuf:out ~count;
    out
  end

let all_gatherv comm dt block sizes =
  (* Boost computes displacements but expects the user to have exchanged
     the counts. *)
  let p = size comm in
  let displs = Array.make p 0 in
  for i = 1 to p - 1 do
    displs.(i) <- displs.(i - 1) + sizes.(i - 1)
  done;
  let total = displs.(p - 1) + sizes.(p - 1) in
  let filler =
    if Array.length block > 0 then block.(0)
    else
      match D.default_elt dt with
      | Some d -> d
      | None -> Mpisim.Errors.usage "Boost_mpi.all_gatherv: no element to size the buffer"
  in
  let out = Array.make (max total 1) filler in
  C.allgatherv comm dt ~sendbuf:block ~scount:(Array.length block) ~recvbuf:out ~rcounts:sizes
    ~rdispls:displs;
  Array.sub out 0 total

let all_reduce comm dt op v =
  let out = [| v |] in
  C.allreduce comm dt op ~sendbuf:[| v |] ~recvbuf:out ~count:1;
  out.(0)

let all_to_all comm dt values =
  let out = Array.copy values in
  C.alltoall comm dt ~sendbuf:values ~recvbuf:out ~count:1;
  out

let gather comm dt v root =
  if rank comm = root then begin
    let out = Array.make (size comm) v in
    C.gather comm dt ~sendbuf:[| v |] ~recvbuf:out ~count:1 ~root;
    out
  end
  else begin
    C.gather comm dt ~sendbuf:[| v |] ~count:1 ~root;
    [||]
  end

let scatter comm dt values root =
  let out =
    match values with
    | Some vs when Array.length vs > 0 -> [| vs.(0) |]
    | _ -> (
        match D.default_elt dt with
        | Some d -> [| d |]
        | None -> Mpisim.Errors.usage "Boost_mpi.scatter: no element to size the buffer")
  in
  (match values with
  | Some vs -> C.scatter ~sendbuf:vs comm dt ~recvbuf:out ~count:1 ~root
  | None -> C.scatter comm dt ~recvbuf:out ~count:1 ~root);
  out.(0)

(* Container payloads travel with a size header so the receiver can resize
   to fit — Boost's hidden allocation. *)
let send comm dt buf ~dst ~tag =
  Mpisim.P2p.send comm D.int [| Array.length buf |] ~dst ~tag;
  if Array.length buf > 0 then Mpisim.P2p.send comm dt buf ~dst ~tag

let recv comm dt ~src ~tag =
  let header = [| 0 |] in
  let st = Mpisim.P2p.recv comm D.int header ~src ~tag in
  let n = header.(0) in
  if n = 0 then [||]
  else begin
    let filler =
      match D.default_elt dt with
      | Some d -> d
      | None -> Mpisim.Errors.usage "Boost_mpi.recv: no element to size the buffer"
    in
    let buf = Array.make n filler in
    ignore (Mpisim.P2p.recv comm dt buf ~src:st.Mpisim.Request.source ~tag);
    buf
  end

let isend comm dt buf ~dst ~tag = Mpisim.P2p.isend comm dt buf ~dst ~tag
let irecv comm dt buf ~src ~tag = Mpisim.P2p.irecv comm dt buf ~src ~tag

let send_serialized comm codec v ~dst ~tag =
  let wire = Serde.Codec.encode codec v in
  Mpisim.Comm.compute comm (D.serialization_cost ~bytes:(Bytes.length wire));
  Mpisim.P2p.send comm D.int [| Bytes.length wire |] ~dst ~tag;
  Mpisim.P2p.send comm D.serialized wire ~dst ~tag

let recv_serialized comm codec ~src ~tag =
  let header = [| 0 |] in
  let st = Mpisim.P2p.recv comm D.int header ~src ~tag in
  let buf = Bytes.create header.(0) in
  ignore (Mpisim.P2p.recv comm D.serialized buf ~src:st.Mpisim.Request.source ~tag);
  Mpisim.Comm.compute comm (D.serialization_cost ~bytes:header.(0));
  Serde.Codec.decode codec buf
