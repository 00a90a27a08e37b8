module C = Mpisim.Collectives

type comm = Mpisim.Comm.t
type layout = { count : int; displ : int }

let wrap c = c
let rank = Mpisim.Comm.rank
let size = Mpisim.Comm.size
let contiguous_layout ?(displ = 0) ~count () = { count; displ }
let empty_layout = { count = 0; displ = 0 }
let layout_count l = l.count
let layout_displ l = l.displ

let allgather comm dt sendbuf recvbuf ~count = C.allgather comm dt ~sendbuf ~recvbuf ~count

(* MPL builds one derived datatype per peer instead of passing counts and
   displacements, so the variable collectives land on the Alltoallw
   fallback. *)
let alltoallv comm dt sendbuf send_layouts recvbuf recv_layouts =
  let scounts = Array.map layout_count send_layouts in
  let sdispls = Array.map layout_displ send_layouts in
  let rcounts = Array.map layout_count recv_layouts in
  let rdispls = Array.map layout_displ recv_layouts in
  C.alltoallw_style comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls

let allgatherv comm dt sendbuf send_layout recvbuf recv_layouts =
  let p = size comm in
  let send_layouts = Array.make p send_layout in
  alltoallv comm dt sendbuf send_layouts recvbuf recv_layouts

let alltoall comm dt sendbuf recvbuf ~count = C.alltoall comm dt ~sendbuf ~recvbuf ~count

let allreduce comm dt op v =
  let out = [| v |] in
  C.allreduce comm dt op ~sendbuf:[| v |] ~recvbuf:out ~count:1;
  out.(0)
