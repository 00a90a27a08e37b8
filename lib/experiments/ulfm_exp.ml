(* Fig. 12 / Sec. V-B: fault-tolerant execution with the ULFM plugin.  A
   compute-allreduce loop loses ranks to injected failures and recovers by
   revoke + shrink; the run reports how many survivors finished and how
   much simulated time the recoveries cost. *)

module K = Kamping.Comm
module D = Mpisim.Datatype

type outcome = {
  ranks : int;
  failures : int;
  survivors_done : int;
  rounds_target : int;
  seconds : float;
}

let scenario ~ranks ~failures ~rounds =
  let fail_at = List.init failures (fun i -> ((i * 3) + 1, float_of_int (i + 1) *. 120.0e-6)) in
  let res =
    Mpisim.Mpi.run ~ranks ~fail_at (fun raw ->
        let comm = ref (K.wrap raw) in
        let completed = ref 0 in
        let attempts = ref 0 in
        while !completed < rounds && !attempts < 10 * rounds do
          incr attempts;
          K.compute !comm 50.0e-6;
          try
            let (_ : int) = K.allreduce_single !comm D.int Mpisim.Op.int_sum 1 in
            incr completed
          with Mpisim.Errors.Process_failed _ | Mpisim.Errors.Comm_revoked ->
            if not (Kamping_plugins.Ulfm.is_revoked !comm) then Kamping_plugins.Ulfm.revoke !comm;
            comm := Kamping_plugins.Ulfm.shrink !comm;
            completed := K.allreduce_single !comm D.int Mpisim.Op.int_min !completed
        done;
        !completed)
  in
  let survivors_done =
    Array.fold_left
      (fun acc r -> match r with Ok c when c = rounds -> acc + 1 | Ok _ | Error _ -> acc)
      0 res.Mpisim.Mpi.results
  in
  { ranks; failures; survivors_done; rounds_target = rounds; seconds = res.Mpisim.Mpi.sim_time }

let run () =
  let rows =
    [ scenario ~ranks:8 ~failures:0 ~rounds:10
    ; scenario ~ranks:8 ~failures:1 ~rounds:10
    ; scenario ~ranks:8 ~failures:2 ~rounds:10
    ; scenario ~ranks:16 ~failures:3 ~rounds:10
    ]
  in
  Table_fmt.print_table ~title:"Fig. 12 - ULFM recovery (revoke + shrink on failure)"
    ~header:[ "ranks"; "injected failures"; "survivors finishing"; "simulated time" ]
    (List.map
       (fun o ->
         [
           string_of_int o.ranks;
           string_of_int o.failures;
           Printf.sprintf "%d/%d" o.survivors_done (o.ranks - o.failures);
           Table_fmt.seconds o.seconds;
         ])
       rows);
  Printf.printf "all survivors completed their %d rounds in every scenario: %b\n"
    (List.hd rows).rounds_target
    (List.for_all (fun o -> o.survivors_done = o.ranks - o.failures) rows)
