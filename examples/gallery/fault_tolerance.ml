(* Fault tolerance with the ULFM plugin (paper Fig. 12): rank 2 dies
   mid-run; the survivors catch the failure, revoke the communicator,
   shrink to a survivors-only communicator and finish the computation.

   Run with:  dune exec examples/fault_tolerance.exe *)

module K = Kamping.Comm
module D = Mpisim.Datatype

let compute ~verbose () =
  Mpisim.Mpi.run ~ranks:6
    ~fail_at:[ (2, 100.0e-6) ] (* rank 2 fails after 100 us *)
    (fun raw ->
      let comm = ref (K.wrap raw) in
      let completed = ref 0 in
      while !completed < 8 do
        K.compute !comm 30.0e-6;
        try
          let (_ : int) = K.allreduce_single !comm D.int Mpisim.Op.int_sum 1 in
          incr completed
        with Mpisim.Errors.Process_failed _ | Mpisim.Errors.Comm_revoked ->
          (* the Fig. 12 recovery pattern *)
          if not (Kamping_plugins.Ulfm.is_revoked !comm) then Kamping_plugins.Ulfm.revoke !comm;
          comm := Kamping_plugins.Ulfm.shrink !comm;
          completed := K.allreduce_single !comm D.int Mpisim.Op.int_min !completed;
          if verbose then
            Printf.printf "rank (world) recovered: now %d survivors\n" (K.size !comm)
      done;
      (K.size !comm, !completed))

let digest () =
  (* the final (size, rounds) per survivor and the set of dead ranks are
     schedule-independent; recovery timing is not and stays out *)
  let result = compute ~verbose:false () in
  result.Mpisim.Mpi.results |> Array.to_list
  |> List.map (function
       | Ok (size, rounds) -> Printf.sprintf "%d/%d" size rounds
       | Error (Mpisim.Mpi.Rank_died | Simnet.Engine.Killed) -> "dead"
       | Error e -> raise e)
  |> String.concat ";"

let run () =
  let result = compute ~verbose:true () in
  Array.iteri
    (fun r outcome ->
      match outcome with
      | Ok (size, rounds) ->
          Printf.printf "rank %d finished %d rounds on a %d-rank communicator\n" r rounds size
      | Error Mpisim.Mpi.Rank_died | Error Simnet.Engine.Killed ->
          Printf.printf "rank %d died (injected failure)\n" r
      | Error e -> raise e)
    result.Mpisim.Mpi.results
