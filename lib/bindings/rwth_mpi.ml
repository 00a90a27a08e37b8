module C = Mpisim.Collectives
module D = Mpisim.Datatype

type comm = Mpisim.Comm.t

let wrap c = c
let rank = Mpisim.Comm.rank
let size = Mpisim.Comm.size

let filler dt block =
  if Array.length block > 0 then block.(0)
  else
    match D.default_elt dt with
    | Some d -> d
    | None -> Mpisim.Errors.usage "Rwth_mpi: no element to size the buffer"

let allgather comm dt block =
  let count = Array.length block in
  let out = Array.make (max 1 (size comm * count)) (filler dt block) in
  C.allgather comm dt ~sendbuf:block ~recvbuf:out ~count;
  Array.sub out 0 (size comm * count)

let allgatherv_inplace comm dt buf ~my_count =
  (* internal count gathering, IN_PLACE only: Sec. III-A's footnote 2 *)
  let p = size comm in
  let rcounts = Array.make p 0 in
  C.allgather comm D.int ~sendbuf:[| my_count |] ~recvbuf:rcounts ~count:1;
  let rdispls = Array.make p 0 in
  for i = 1 to p - 1 do
    rdispls.(i) <- rdispls.(i - 1) + rcounts.(i - 1)
  done;
  C.allgatherv ~inplace:true comm dt ~sendbuf:[||] ~scount:rcounts.(rank comm) ~recvbuf:buf
    ~rcounts ~rdispls

let allgatherv comm dt block ~rcounts =
  let p = size comm in
  let rdispls = Array.make p 0 in
  for i = 1 to p - 1 do
    rdispls.(i) <- rdispls.(i - 1) + rcounts.(i - 1)
  done;
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let out = Array.make (max 1 total) (filler dt block) in
  C.allgatherv comm dt ~sendbuf:block ~scount:(Array.length block) ~recvbuf:out ~rcounts ~rdispls;
  Array.sub out 0 total

let alltoall comm dt block =
  let out = Array.make (max 1 (Array.length block)) (filler dt block) in
  C.alltoall comm dt ~sendbuf:block ~recvbuf:out ~count:(Array.length block / size comm);
  out

let alltoallv comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls =
  C.alltoallv comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls

let allreduce comm dt op v =
  let out = [| v |] in
  C.allreduce comm dt op ~sendbuf:[| v |] ~recvbuf:out ~count:1;
  out.(0)
