(* Collective-tuning sweep: predicted vs simulated crossover table.

   For each tuned collective and each (rank count, element count) point we
   pin every candidate algorithm in turn, run one call on the simulator,
   and take the slowest rank's completion time; next to it we put the LogGP
   prediction the selector used.  The selector's pick ("selected") can then
   be compared against both the incumbent (the algorithm the library
   hardcoded before tuning) and the empirically fastest variant. *)

module C = Mpisim.Collectives
module D = Mpisim.Datatype
module Algo = Coll_algos.Algo
module Cost = Coll_algos.Cost
module Select = Coll_algos.Select

type algo_result = { algo : string; predicted : float; simulated : float }

type case = {
  coll : string;
  p : int;
  count : int;
  bytes : int;
  selected : string;
  incumbent : string;
  results : algo_result list;
}

let prm = Simnet.Netmodel.default
let op = Mpisim.Op.int_sum

(* Max completion time across ranks of one pinned collective call. *)
let simulate ~coll ~algo ~p ~count =
  let times =
    Mpisim.Mpi.run_exn ~ranks:p (fun raw ->
        C.pin_algorithm raw ~coll ~algo;
        let r = Mpisim.Comm.rank raw in
        let t0 = Mpisim.Comm.now raw in
        (match coll with
        | "bcast" ->
            let buf = Array.make count r in
            C.bcast raw D.int buf ~root:0
        | "allreduce" ->
            let sendbuf = Array.make count r and recvbuf = Array.make count 0 in
            C.allreduce raw D.int op ~sendbuf ~recvbuf ~count
        | "allgather" ->
            let sendbuf = Array.make count r and recvbuf = Array.make (p * count) 0 in
            C.allgather raw D.int ~sendbuf ~recvbuf ~count
        | "alltoall" ->
            let sendbuf = Array.make (p * count) r and recvbuf = Array.make (p * count) 0 in
            C.alltoall raw D.int ~sendbuf ~recvbuf ~count
        | _ -> invalid_arg coll);
        Mpisim.Comm.now raw -. t0)
  in
  Array.fold_left Float.max 0.0 times

(* Candidates, predictions and the selector's choice, per collective.  The
   selection call mirrors what the dispatcher does (same inputs, fresh
   table, no pins), so "selected" is exactly what an untuned run picks. *)
let describe ~coll ~p ~count =
  let bytes = D.bytes D.int count in
  let fresh = Select.create () in
  match coll with
  | "bcast" ->
      ( bytes,
        List.map
          (fun a -> (Algo.bcast_name a, Cost.bcast prm ~p ~bytes a))
          Algo.all_bcast,
        Algo.bcast_name (Select.bcast fresh ~cid:0 prm ~p ~bytes),
        Algo.bcast_name Bcast_binomial )
  | "allreduce" ->
      let op_cost = Mpisim.Op.cost_per_element op in
      ( bytes,
        List.map
          (fun a -> (Algo.allreduce_name a, Cost.allreduce prm ~p ~bytes ~elems:count ~op_cost a))
          Algo.all_allreduce,
        Algo.allreduce_name
          (Select.allreduce fresh ~cid:0 prm ~p ~bytes ~elems:count ~op_cost ~commutative:true),
        Algo.allreduce_name Ar_reduce_bcast )
  | "allgather" ->
      let feasible a = a <> Algo.Ag_recursive_doubling || p land (p - 1) = 0 in
      ( bytes,
        List.filter_map
          (fun a ->
            if feasible a then Some (Algo.allgather_name a, Cost.allgather prm ~p ~bytes a)
            else None)
          Algo.all_allgather,
        Algo.allgather_name (Select.allgather fresh ~cid:0 prm ~p ~bytes),
        Algo.allgather_name Ag_bruck )
  | "alltoall" ->
      ( bytes,
        List.map
          (fun a -> (Algo.alltoall_name a, Cost.alltoall prm ~p ~bytes a))
          Algo.all_alltoall,
        Algo.alltoall_name (Select.alltoall fresh ~cid:0 prm ~p ~bytes),
        Algo.alltoall_name A2a_pairwise )
  | _ -> invalid_arg coll

let sweep_point ~coll ~p ~count =
  let bytes, predictions, selected, incumbent = describe ~coll ~p ~count in
  (* hierarchical variants predict infinity on the flat fabric: not real
     candidates here, and "inf" is not JSON *)
  let predictions = List.filter (fun (_, c) -> c < infinity) predictions in
  let results =
    List.map
      (fun (algo, predicted) ->
        { algo; predicted; simulated = simulate ~coll ~algo ~p ~count })
      predictions
  in
  { coll; p; count; bytes; selected; incumbent; results }

let grid =
  [
    ("bcast", [ 1; 1024; 65536 ]);
    ("allreduce", [ 1; 1024; 65536 ]);
    ("allgather", [ 1; 512; 16384 ]);
    ("alltoall", [ 1; 256; 4096 ]);
  ]

let rank_counts = [ 4; 16 ]

let sweep () =
  List.concat_map
    (fun (coll, counts) ->
      List.concat_map
        (fun p -> List.map (fun count -> sweep_point ~coll ~p ~count) counts)
        rank_counts)
    grid

let fastest c =
  List.fold_left (fun best r -> if r.simulated < best.simulated then r else best)
    (List.hd c.results) c.results

let print cases =
  let header = [ "coll"; "p"; "count"; "algorithm"; "predicted"; "simulated"; "" ] in
  let rows =
    List.concat_map
      (fun c ->
        let best = fastest c in
        List.map
          (fun r ->
            let marks =
              (if r.algo = c.selected then "selected " else "")
              ^ (if r.algo = c.incumbent then "incumbent " else "")
              ^ if r.algo = best.algo then "fastest" else ""
            in
            [
              c.coll;
              string_of_int c.p;
              string_of_int c.count;
              r.algo;
              Table_fmt.seconds r.predicted;
              Table_fmt.seconds r.simulated;
              String.trim marks;
            ])
          c.results)
      cases
  in
  Table_fmt.print_table ~title:"Collective algorithm crossover (predicted vs simulated)" ~header
    rows;
  (* summary: does the cost model pick the empirically fastest variant, and
     what does tuning buy over the old hardcoded choice? *)
  let points = List.length cases in
  let hits = List.length (List.filter (fun c -> (fastest c).algo = c.selected) cases) in
  let improved =
    List.filter
      (fun c ->
        let sel = List.find (fun r -> r.algo = c.selected) c.results in
        let inc = List.find (fun r -> r.algo = c.incumbent) c.results in
        sel.simulated < inc.simulated *. 0.999)
      cases
  in
  Printf.printf "  selector picks the fastest simulated variant on %d/%d points\n" hits points;
  Printf.printf "  selector beats the pre-tuning hardcoded algorithm on %d/%d points\n%!"
    (List.length improved) points

(* ---------------- topology-aware sweep ---------------- *)

(* The acceptance fabric: a two-tier cluster of 48-rank shared-memory
   nodes (the paper machine's shape), four nodes' worth of ranks, under a
   scattered batch allocation — consecutive ranks rarely share a node, so
   topology-blind algorithms pay inter-node cost on almost every edge
   while the hierarchical variants recover the node structure from the
   placement map. *)
let hier_node_size = Topology.Presets.omnipath_node_size
let hier_ranks = 4 * hier_node_size
let hier_fabric () = Topology.Presets.omnipath_scattered ~ranks:hier_ranks

type hier_case = {
  hc_coll : string;
  hc_count : int;
  hc_bytes : int;
  hc_flat_algo : string;  (** the pre-topology cost-based choice *)
  hc_flat_time : float;
  hc_tuned_algo : string;  (** what the installed pin table dispatches *)
  hc_tuned_time : float;
  hc_predicted : string;  (** topology-aware cost-model winner *)
  hc_simulated : string;  (** empirically fastest pinned variant *)
  hc_results : algo_result list;
}

type hier_report = {
  hr_ranks : int;
  hr_node_size : int;
  hr_cases : hier_case list;
  hr_speedups : (string * float) list;  (** coll -> max flat/tuned *)
  hr_crossover_ok : bool;
  hr_table_ok : bool;  (** tuned dispatch = predicted winner everywhere *)
}

(* Max completion time across ranks of one collective call on the fabric,
   after [setup] (a pin, or an installed auto-tune table) ran on every
   rank. *)
let simulate_fabric ~fabric ~setup ~coll ~count =
  let p = hier_ranks in
  let res =
    Mpisim.Mpi.run ~fabric ~ranks:p (fun raw ->
        setup raw;
        let r = Mpisim.Comm.rank raw in
        let t0 = Mpisim.Comm.now raw in
        (match coll with
        | "bcast" ->
            let buf = Array.make count r in
            C.bcast raw D.int buf ~root:0
        | "allreduce" ->
            let sendbuf = Array.make count r and recvbuf = Array.make count 0 in
            C.allreduce raw D.int op ~sendbuf ~recvbuf ~count
        | "alltoall" ->
            let sendbuf = Array.make (p * count) r and recvbuf = Array.make (p * count) 0 in
            C.alltoall raw D.int ~sendbuf ~recvbuf ~count
        | _ -> invalid_arg coll);
        Mpisim.Comm.now raw -. t0)
  in
  Array.fold_left Float.max 0.0 (Mpisim.Mpi.results_exn res)

(* Argmin over (algo, cost) in catalogue order, strict [<] so the
   incumbent keeps ties — the same rule as [Select]. *)
let arg_best predictions =
  List.fold_left
    (fun (ba, bc) (a, c) -> if c < bc then (a, c) else (ba, bc))
    (List.hd predictions) (List.tl predictions)

(* Last pin-table row whose threshold covers [bytes] (tables are anchored
   at 0, so this is total). *)
let table_algo table ~bytes =
  List.fold_left (fun acc (thr, a) -> if thr <= bytes then a else acc) (snd (List.hd table)) table

let hier_point ~fabric ~net ~group ~plan ~coll ~count =
  let bytes = D.bytes D.int count in
  let p = hier_ranks in
  let prm = Simnet.Netmodel.params_for_group net group in
  let hier = Simnet.Netmodel.hier_for_group net group in
  let op_cost = Mpisim.Op.cost_per_element op in
  let fresh = Select.create () in
  let predictions, flat_algo, table =
    match coll with
    | "bcast" ->
        ( Topology.Autotune.predict_bcast ?hier prm ~p ~bytes,
          Algo.bcast_name (Select.bcast fresh ~cid:0 prm ~p ~bytes),
          plan.Topology.Autotune.t_bcast )
    | "allreduce" ->
        ( Topology.Autotune.predict_allreduce ?hier ~op_cost prm ~p ~bytes,
          Algo.allreduce_name
            (Select.allreduce fresh ~cid:0 prm ~p ~bytes ~elems:count ~op_cost ~commutative:true),
          plan.Topology.Autotune.t_allreduce )
    | "alltoall" ->
        ( Topology.Autotune.predict_alltoall ?hier prm ~p ~bytes,
          Algo.alltoall_name (Select.alltoall fresh ~cid:0 prm ~p ~bytes),
          plan.Topology.Autotune.t_alltoall )
    | _ -> invalid_arg coll
  in
  let results =
    List.filter_map
      (fun (algo, predicted) ->
        if predicted = infinity then None
        else
          Some
            {
              algo;
              predicted;
              simulated =
                simulate_fabric ~fabric ~coll ~count ~setup:(fun raw ->
                    C.pin_algorithm raw ~coll ~algo);
            })
      predictions
  in
  let tuned_algo = table_algo table ~bytes in
  let tuned_time =
    simulate_fabric ~fabric ~coll ~count ~setup:(fun raw ->
        C.pin_table_algorithm raw ~coll table)
  in
  let flat_time = (List.find (fun r -> r.algo = flat_algo) results).simulated in
  let simulated =
    (List.fold_left (fun b r -> if r.simulated < b.simulated then r else b) (List.hd results)
       results)
      .algo
  in
  {
    hc_coll = coll;
    hc_count = count;
    hc_bytes = bytes;
    hc_flat_algo = flat_algo;
    hc_flat_time = flat_time;
    hc_tuned_algo = tuned_algo;
    hc_tuned_time = tuned_time;
    hc_predicted = fst (arg_best predictions);
    hc_simulated = simulated;
    hc_results = results;
  }

let hier_grid =
  [
    ("bcast", [ 1; 256; 4096; 65536 ]);
    ("allreduce", [ 1; 256; 4096; 65536 ]);
    ("alltoall", [ 1; 64; 1024 ]);
  ]

(* Predicted-vs-simulated crossover agreement, within one sweep step: at
   every sweep point the cost model's winner must be the simulated winner
   there or at an adjacent point (a switch one grid step early or late is
   fine — the grids are geometric), or at worst simulate within 5% of the
   best (near-ties are not a crossover disagreement). *)
let crossover_ok cases =
  let arr = Array.of_list cases in
  let sim i = arr.(i).hc_simulated in
  let ok i c =
    c.hc_predicted = sim i
    || (i > 0 && c.hc_predicted = sim (i - 1))
    || (i < Array.length arr - 1 && c.hc_predicted = sim (i + 1))
    ||
    let best = List.find (fun r -> r.algo = sim i) c.hc_results in
    match List.find_opt (fun r -> r.algo = c.hc_predicted) c.hc_results with
    | Some p -> p.simulated <= best.simulated *. 1.05
    | None -> false
  in
  Array.for_all Fun.id (Array.mapi ok arr)

let hier_sweep () =
  let fabric = hier_fabric () in
  let net = Simnet.Netmodel.create_fabric fabric ~ranks:hier_ranks in
  let group = Array.init hier_ranks Fun.id in
  let by_coll =
    List.map
      (fun (coll, counts) ->
        let sizes = List.map (fun c -> D.bytes D.int c) counts in
        let plan = Topology.Autotune.tune fabric ~p:hier_ranks ~sizes in
        (coll, List.map (fun count -> hier_point ~fabric ~net ~group ~plan ~coll ~count) counts))
      hier_grid
  in
  let speedup cases =
    List.fold_left (fun m c -> Float.max m (c.hc_flat_time /. c.hc_tuned_time)) 0.0 cases
  in
  let cases = List.concat_map snd by_coll in
  {
    hr_ranks = hier_ranks;
    hr_node_size = hier_node_size;
    hr_cases = cases;
    hr_speedups = List.map (fun (coll, cs) -> (coll, speedup cs)) by_coll;
    hr_crossover_ok = List.for_all (fun (_, cs) -> crossover_ok cs) by_coll;
    hr_table_ok = List.for_all (fun c -> c.hc_tuned_algo = c.hc_predicted) cases;
  }

let print_hier report =
  let header = [ "coll"; "count"; "algorithm"; "predicted"; "simulated"; "" ] in
  let rows =
    List.concat_map
      (fun c ->
        List.map
          (fun r ->
            let marks =
              (if r.algo = c.hc_tuned_algo then "tuned " else "")
              ^ (if r.algo = c.hc_flat_algo then "flat-default " else "")
              ^ if r.algo = c.hc_simulated then "fastest" else ""
            in
            [
              c.hc_coll;
              string_of_int c.hc_count;
              r.algo;
              Table_fmt.seconds r.predicted;
              Table_fmt.seconds r.simulated;
              String.trim marks;
            ])
          c.hc_results)
      report.hr_cases
  in
  Table_fmt.print_table
    ~title:
      (Printf.sprintf "Hierarchical collectives on a two-tier fabric (%d ranks, %d per node)"
         report.hr_ranks report.hr_node_size)
    ~header rows;
  List.iter
    (fun (coll, s) ->
      Printf.printf "  %-10s best auto-tuned speedup over the flat default: %.2fx\n" coll s)
    report.hr_speedups;
  Printf.printf "  predicted crossovers track simulated ones within one sweep step: %b\n"
    report.hr_crossover_ok;
  Printf.printf "  pin-table dispatch matches the predicted winner everywhere: %b\n%!"
    report.hr_table_ok

let speedup_of report coll = try List.assoc coll report.hr_speedups with Not_found -> 0.0

module J = Serde.Json

let num_of_int i = J.Num (float_of_int i)

let results_json results =
  J.List
    (List.map
       (fun r ->
         J.Obj
           [ ("algo", J.Str r.algo); ("predicted", J.Num r.predicted); ("simulated", J.Num r.simulated) ])
       results)

let to_json cases report =
  let case_json c =
    J.Obj
      [
        ("coll", J.Str c.coll);
        ("p", num_of_int c.p);
        ("count", num_of_int c.count);
        ("bytes", num_of_int c.bytes);
        ("selected", J.Str c.selected);
        ("incumbent", J.Str c.incumbent);
        ("fastest", J.Str (fastest c).algo);
        ("results", results_json c.results);
      ]
  in
  let hier_case_json c =
    J.Obj
      [
        ("coll", J.Str c.hc_coll);
        ("count", num_of_int c.hc_count);
        ("bytes", num_of_int c.hc_bytes);
        ("flat_algo", J.Str c.hc_flat_algo);
        ("flat_time", J.Num c.hc_flat_time);
        ("tuned_algo", J.Str c.hc_tuned_algo);
        ("tuned_time", J.Num c.hc_tuned_time);
        ("speedup", J.Num (c.hc_flat_time /. c.hc_tuned_time));
        ("predicted", J.Str c.hc_predicted);
        ("simulated", J.Str c.hc_simulated);
        ("results", results_json c.hc_results);
      ]
  in
  J.Obj
    [
      ("experiment", J.Str "collective_tuning");
      ("cases", J.List (List.map case_json cases));
      ( "topology",
        J.Obj
          [
            ("ranks", num_of_int report.hr_ranks);
            ("node_size", num_of_int report.hr_node_size);
            ("cases", J.List (List.map hier_case_json report.hr_cases));
            ("speedups", J.Obj (List.map (fun (coll, s) -> (coll, J.Num s)) report.hr_speedups));
          ] );
    ]

let run () =
  let cases = sweep () in
  print cases;
  let report = hier_sweep () in
  print_hier report;
  Bench_report.report ~name:"colltuning" ~path:"BENCH_collectives.json" (to_json cases report)
    [
      ("hier_bcast_speedup_ge_1_2", speedup_of report "bcast" >= 1.2);
      ("hier_allreduce_speedup_ge_1_2", speedup_of report "allreduce" >= 1.2);
      ("crossovers_within_one_sweep_step", report.hr_crossover_ok);
      ("tuned_dispatch_matches_prediction", report.hr_table_ok);
    ]
