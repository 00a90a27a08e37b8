type t = { world_ranks : int array }

let of_comm comm = { world_ranks = Array.copy (Comm.group comm) }
let size g = Array.length g.world_ranks

let check_positions g ranks =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      if r < 0 || r >= size g then Errors.usage "Group: position %d out of range" r;
      if Hashtbl.mem seen r then Errors.usage "Group: duplicate position %d" r;
      Hashtbl.add seen r ())
    ranks

let incl g ranks =
  check_positions g ranks;
  { world_ranks = Array.map (fun r -> g.world_ranks.(r)) ranks }

let excl g ranks =
  check_positions g ranks;
  let drop = Hashtbl.create 8 in
  Array.iter (fun r -> Hashtbl.add drop r ()) ranks;
  let keep = ref [] in
  Array.iteri (fun i wr -> if not (Hashtbl.mem drop i) then keep := wr :: !keep) g.world_ranks;
  { world_ranks = Array.of_list (List.rev !keep) }

let mem g wr = Array.exists (fun x -> x = wr) g.world_ranks

let union a b =
  let extra = Array.to_list b.world_ranks |> List.filter (fun wr -> not (mem a wr)) in
  { world_ranks = Array.append a.world_ranks (Array.of_list extra) }

let intersection a b =
  { world_ranks = Array.of_seq (Seq.filter (mem b) (Array.to_seq a.world_ranks)) }

let difference a b =
  { world_ranks = Array.of_seq (Seq.filter (fun wr -> not (mem b wr)) (Array.to_seq a.world_ranks)) }

let position g wr =
  let n = size g in
  let rec go i = if i >= n then None else if g.world_ranks.(i) = wr then Some i else go (i + 1) in
  go 0

let translate_ranks ga ranks gb =
  Array.map
    (fun r ->
      if r < 0 || r >= size ga then Errors.usage "translate_ranks: position %d out of range" r;
      position gb ga.world_ranks.(r))
    ranks

let rank_in g comm = position g (Comm.world_rank_of comm (Comm.rank comm))

(* Group-collective communicator creation: the group leader materializes
   the shared state and hands it to the other members over the parent
   communicator (non-members are not involved, unlike MPI_Comm_create). *)
let dt_comm : World.comm_shared Datatype.t = Datatype.custom ~name:"MPI_Comm_group" ~extent:16 ()

let comm_create_group comm g ~tag =
  Comm.check_active comm;
  if tag < 0 then Errors.usage "comm_create_group: tag must be non-negative";
  let my_world = Comm.world_rank_of comm (Comm.rank comm) in
  let my_pos =
    match position g my_world with
    | Some i -> i
    | None -> Errors.usage "comm_create_group: the caller is not a group member"
  in
  Observe.call Comm_mgmt comm "MPI_Comm_create_group" @@ fun () ->
  let w = Comm.world comm in
  (* translate group members to parent comm ranks for the distribution *)
  let parent_rank_of wr =
    let grp = Comm.group comm in
    let n = Array.length grp in
    let rec go i =
      if i >= n then Errors.usage "comm_create_group: group member not in the communicator"
      else if grp.(i) = wr then i
      else go (i + 1)
    in
    go 0
  in
  let shared =
    if my_pos = 0 then begin
      let shared = World.fresh_comm w (Array.copy g.world_ranks) in
      let box = [| shared |] in
      Array.iteri
        (fun i wr ->
          if i > 0 then P2p.send ~ctx:Internal comm dt_comm box ~dst:(parent_rank_of wr) ~tag)
        g.world_ranks;
      shared
    end
    else begin
      let box = [| Comm.shared comm |] in
      ignore (P2p.recv ~ctx:Internal comm dt_comm box ~src:(parent_rank_of g.world_ranks.(0)) ~tag);
      box.(0)
    end
  in
  Comm.make w shared ~rank:my_pos
