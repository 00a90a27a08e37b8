(* Shared parts of the size-constrained label propagation benchmark (paper
   Sec. IV-B, the dKaMinPar component): ghost-vertex bookkeeping and the
   local compute step.  The three variants (custom layer / plain MPI /
   KaMPIng) differ only in how ghost labels are pulled each iteration. *)

module G = Graphgen.Distgraph

type ghosts = {
  need : (int * int array) array;  (* (owner, my needed global ids), by owner *)
  send_to : (int * int array) array;  (* (requester, my global ids to ship) *)
  ghost_index : (int, int) Hashtbl.t;  (* global id -> slot in ghost value array *)
  ghost_count : int;
  first_vertex : int;  (* to translate own global ids to label indices *)
}

(* One-time setup: exchange the static request lists (who needs which of
   whose vertices).  This part is identical for all variants and uses the
   plain interface. *)
let setup_ghosts comm graph =
  let p = Mpisim.Comm.size comm in
  let wanted = Hashtbl.create 64 in
  for i = 0 to graph.G.local_n - 1 do
    G.iter_neighbors graph i (fun u -> if not (G.is_local graph u) then Hashtbl.replace wanted u ())
  done;
  let by_owner = Array.make p [] in
  Hashtbl.iter (fun u () -> by_owner.(G.owner graph u) <- u :: by_owner.(G.owner graph u)) wanted;
  let need =
    Array.to_list by_owner
    |> List.mapi (fun o ids -> (o, Array.of_list (List.sort compare ids)))
    |> List.filter (fun (_, ids) -> Array.length ids > 0)
    |> Array.of_list
  in
  (* ship the request lists to the owners *)
  let scounts = Array.make p 0 in
  Array.iter (fun (o, ids) -> scounts.(o) <- Array.length ids) need;
  let sdispls = Mpisim.Collectives.exclusive_scan scounts in
  let sendbuf = Array.make (max 1 (Array.fold_left ( + ) 0 scounts)) 0 in
  Array.iter (fun (o, ids) -> Array.blit ids 0 sendbuf sdispls.(o) (Array.length ids)) need;
  let rcounts = Array.make p 0 in
  Mpisim.Collectives.alltoall comm Mpisim.Datatype.int ~sendbuf:scounts ~recvbuf:rcounts ~count:1;
  let rdispls = Mpisim.Collectives.exclusive_scan rcounts in
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let recvbuf = Array.make (max total 1) 0 in
  Mpisim.Collectives.alltoallv comm Mpisim.Datatype.int ~sendbuf ~scounts ~sdispls ~recvbuf
    ~rcounts ~rdispls;
  let send_to =
    List.init p (fun requester ->
        (requester, Array.sub recvbuf rdispls.(requester) rcounts.(requester)))
    |> List.filter (fun (_, ids) -> Array.length ids > 0)
    |> Array.of_list
  in
  let ghost_index = Hashtbl.create 64 in
  let slot = ref 0 in
  Array.iter
    (fun (_, ids) ->
      Array.iter
        (fun u ->
          Hashtbl.add ghost_index u !slot;
          incr slot)
        ids)
    need;
  { need; send_to; ghost_index; ghost_count = !slot; first_vertex = graph.G.first_vertex }

let init_labels graph = Array.init (max graph.G.local_n 1) (fun i -> G.global_of_local graph i)

(* One local sweep: every vertex adopts the most frequent neighbor label
   (ties to the smaller label) subject to the cluster-size budget tracked
   from locally visible members.  Returns the number of changed labels. *)
let sweep comm graph labels ~ghost_label ~max_cluster_size =
  let sizes = Hashtbl.create 64 in
  let bump l d =
    let cur = match Hashtbl.find_opt sizes l with Some x -> x | None -> 0 in
    Hashtbl.replace sizes l (cur + d)
  in
  Array.iteri (fun i l -> if i < graph.G.local_n then bump l 1) labels;
  let changes = ref 0 in
  let votes = Hashtbl.create 16 in
  for i = 0 to graph.G.local_n - 1 do
    Hashtbl.reset votes;
    G.iter_neighbors graph i (fun u ->
        let l = if G.is_local graph u then labels.(G.local_of_global graph u) else ghost_label u in
        let cur = match Hashtbl.find_opt votes l with Some x -> x | None -> 0 in
        Hashtbl.replace votes l (cur + 1));
    let best = ref labels.(i) and best_votes = ref 0 in
    Hashtbl.iter
      (fun l v -> if v > !best_votes || (v = !best_votes && l < !best) then begin
             best := l;
             best_votes := v
           end)
      votes;
    let size_ok =
      match Hashtbl.find_opt sizes !best with
      | Some s -> s < max_cluster_size
      | None -> true
    in
    if !best <> labels.(i) && size_ok then begin
      bump labels.(i) (-1);
      bump !best 1;
      labels.(i) <- !best;
      incr changes
    end
  done;
  Mpisim.Comm.compute comm (Kamping.Costs.per_edge (G.local_edges graph));
  Mpisim.Comm.compute comm (Kamping.Costs.hash_ops graph.G.local_n);
  !changes

(* The generic driver: [pull] fetches the current labels of all ghosts. *)
let run comm graph ~pull ~iterations ~max_cluster_size =
  let ghosts = setup_ghosts comm graph in
  let labels = init_labels graph in
  let ghost_values = Array.make (max ghosts.ghost_count 1) (-1) in
  let ghost_label u =
    match Hashtbl.find_opt ghosts.ghost_index u with
    | Some slot -> ghost_values.(slot)
    | None -> Mpisim.Errors.usage "label_prop: vertex %d is not a known ghost" u
  in
  for _ = 1 to iterations do
    pull comm ghosts labels ghost_values;
    ignore (sweep comm graph labels ~ghost_label ~max_cluster_size)
  done;
  labels
