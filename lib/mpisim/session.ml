type t = { world : World.t; world_rank : int; name : string }

let init ?(name = "default") comm =
  { world = Comm.world comm; world_rank = Comm.world_rank_of comm (Comm.rank comm); name }

let register_pset s pname ranks = World.register_pset s.world pname ranks

let self_pset = "mpi://self"

let pset_of s pname =
  if pname = self_pset then Some [| s.world_rank |] else World.pset s.world pname

let comm_of_pset s pname =
  let group =
    match pset_of s pname with
    | Some g -> g
    | None -> Errors.usage "Session.comm_of_pset: unknown process set %S" pname
  in
  let rank =
    let rec find i =
      if i >= Array.length group then
        Errors.usage "Session.comm_of_pset: rank %d is not a member of %S" s.world_rank pname
      else if group.(i) = s.world_rank then i
      else find (i + 1)
    in
    find 0
  in
  (* The key scopes the communicator to (session name, pset): two libraries
     initializing separate sessions over the same process set get distinct
     communicators, so their collective sequences and tag spaces cannot
     interfere — and no communication or shared counter visible to the
     other library is involved. *)
  let key = s.name ^ "\x00" ^ pname ^ if pname = self_pset then Printf.sprintf "\x00%d" s.world_rank else "" in
  let shared = World.session_comm s.world ~key group in
  Comm.make s.world shared ~rank
