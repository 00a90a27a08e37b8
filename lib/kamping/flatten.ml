type 'a flat = { data : 'a Ds.Vec.t; send_counts : int array }

let flatten ~comm_size tbl =
  Hashtbl.iter
    (fun dest _ ->
      if dest < 0 || dest >= comm_size then
        Mpisim.Errors.usage "flatten: destination %d outside communicator of size %d" dest comm_size)
    tbl;
  let send_counts = Array.make comm_size 0 in
  let data = Ds.Vec.create () in
  for dest = 0 to comm_size - 1 do
    match Hashtbl.find_opt tbl dest with
    | Some msgs ->
        send_counts.(dest) <- Ds.Vec.length msgs;
        Ds.Vec.append data msgs
    | None -> ()
  done;
  { data; send_counts }

(* Summing per-destination counts is where a 32-bit-count MPI first
   overflows in practice (the "int is not enough" motivation of MPI-4):
   check explicitly so huge layouts fail loudly, not by wraparound. *)
let total_count flat =
  Array.fold_left
    (fun acc c ->
      let t = acc + c in
      if c < 0 || t < 0 then raise (Mpisim.Errors.Count_overflow { count = acc; extent = 1 });
      t)
    0 flat.send_counts
