module J = Serde.Json

let ranks = 8
let n_per_rank = 1_000
let repeats = 5

let workload comm =
  let data =
    Apps.Ss_common.generate_input ~rank:(Mpisim.Comm.rank comm) ~n_per_rank ~seed:8
  in
  let sorted = Apps.Ss_kamping.sort comm data in
  (Array.length sorted, Array.fold_left ( + ) 0 sorted)

(* A run under a chooser keeps every send completion an event; one without
   elides those nobody waited on ([elided]), so only [events + elided]
   compares across modes. *)
type sample = { host_ms : float; sim_time : float; events : int; elided : int; digest : string }

let timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, (Sys.time () -. t0) *. 1e3)

let observe = function
  | Explore.Pass d -> d
  | Explore.Fail reason -> failwith ("explore: workload failed: " ^ reason)

let measure mode =
  List.init repeats (fun i ->
      match mode with
      | `Off ->
          let r, host_ms = timed (fun () -> Explore.unexplored (fun () ->
              Mpisim.Checker.with_level Mpisim.Checker.Communication (fun () ->
                  Mpisim.Mpi.run ~ranks workload)))
          in
          ignore (Mpisim.Mpi.results_exn r);
          { host_ms;
            sim_time = r.Mpisim.Mpi.sim_time;
            events = r.Mpisim.Mpi.events;
            elided = r.Mpisim.Mpi.elided;
            digest = "" }
      | `Default | `Random ->
          let strategy =
            match mode with
            | `Random -> Explore.Random { seed = 1000 + i }
            | _ -> Explore.Default
          in
          let o, host_ms = timed (fun () -> Explore.run ~strategy ~ranks workload) in
          let digest = observe (Explore.verdict_of o) in
          (match o.Explore.outcome with
          | Explore.Finished r ->
              { host_ms;
                sim_time = r.Mpisim.Mpi.sim_time;
                events = r.Mpisim.Mpi.events;
                elided = r.Mpisim.Mpi.elided;
                digest }
          | Explore.Crashed e -> raise e))

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let run () =
  Printf.printf "exploration overhead, sample sort (%d ranks, %d keys/rank, %d repeats):\n\n"
    ranks n_per_rank repeats;
  let off = measure `Off in
  let dflt = measure `Default in
  let rand = measure `Random in
  let host samples = mean (List.map (fun s -> s.host_ms) samples) in
  let report name samples =
    let s = List.hd samples in
    Printf.printf "  %-10s %8.2f ms/run host   sim %8.1f us   %7d events (%d elided)\n" name
      (host samples) (1e6 *. s.sim_time) s.events s.elided
  in
  report "off" off;
  report "default" dflt;
  report "random" rand;
  Printf.printf "\n  default-strategy host overhead over off: %+.1f%%\n"
    (100.0 *. ((host dflt /. host off) -. 1.0));

  (* (a) every Default run simulates exactly like the exploration-off run;
     (b) every random schedule agrees with Default on the result *)
  let o = List.hd off and d = List.hd dflt in
  let pure_observer =
    List.for_all
      (fun s -> s.sim_time = o.sim_time && s.events + s.elided = o.events + o.elided)
      dflt
  in
  let schedules_agree = List.for_all (fun s -> s.digest = d.digest) rand in

  let mode_json name samples =
    let s = List.hd samples in
    J.Obj
      [
        ("mode", J.Str name);
        ("host_ms_mean", J.Num (host samples));
        ("sim_time_s", J.Num s.sim_time);
        ("events", J.Num (float_of_int s.events));
        ("elided", J.Num (float_of_int s.elided));
      ]
  in
  let json =
    J.Obj
      [
        ("workload", J.Str "sample_sort");
        ("ranks", J.Num (float_of_int ranks));
        ("n_per_rank", J.Num (float_of_int n_per_rank));
        ("repeats", J.Num (float_of_int repeats));
        ("modes", J.List [ mode_json "off" off; mode_json "default" dflt; mode_json "random" rand ]);
      ]
  in
  Bench_report.report ~name:"explore" ~path:"BENCH_explore.json" json
    [ ("default_pure_observer", pure_observer); ("random_schedules_agree", schedules_agree) ]
