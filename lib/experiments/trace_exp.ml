module J = Serde.Json
module Gen = Graphgen.Generators

let traced_run ~label ~ranks f =
  let res = Mpisim.Mpi.run ~trace:true ~ranks f in
  ignore (Mpisim.Mpi.results_exn res);
  match res.Mpisim.Mpi.trace with
  | Some data -> data
  | None -> failwith (Printf.sprintf "trace: no trace recorded for %s" label)

let sample_sort_trace ~ranks =
  traced_run ~label:"fig8 sample sort" ~ranks (fun comm ->
      let data =
        Apps.Ss_common.generate_input ~rank:(Mpisim.Comm.rank comm) ~n_per_rank:2_000 ~seed:8
      in
      let (_ : int array) = Apps.Ss_kamping.sort comm data in
      ())

let bfs_trace ~ranks =
  traced_run ~label:"fig10 BFS" ~ranks (fun comm ->
      let graph =
        Gen.generate Gen.Erdos_renyi ~rank:(Mpisim.Comm.rank comm) ~comm_size:ranks
          ~global_n:(1024 * ranks) ~avg_degree:8 ~seed:31
      in
      let (_ : int array) = Apps.Bfs_kamping.bfs comm graph ~src:0 in
      ())

(* Structural checks on the file as read back: it must contain a
   complete-event track for every rank of every process group, and pair
   every matched message's flow start with its finish. *)
let validate ~path ~parsed ~groups =
  let evs =
    match J.member "traceEvents" parsed with
    | Some (J.List evs) -> evs
    | _ -> failwith (Printf.sprintf "trace: %s lacks a traceEvents list" path)
  in
  let field name ev = J.member name ev in
  let num_field name ev =
    match field name ev with Some (J.Num n) -> Some (int_of_float n) | _ -> None
  in
  let is_ph p ev = field "ph" ev = Some (J.Str p) in
  let starts = List.length (List.filter (is_ph "s") evs) in
  let finishes = List.length (List.filter (is_ph "f") evs) in
  if starts <> finishes then
    failwith (Printf.sprintf "trace: %d flow starts vs %d finishes" starts finishes);
  List.iter
    (fun (pid, ranks, matched) ->
      for r = 0 to ranks - 1 do
        let has_track =
          List.exists
            (fun ev ->
              is_ph "X" ev && num_field "pid" ev = Some pid && num_field "tid" ev = Some r)
            evs
        in
        if not has_track then
          failwith (Printf.sprintf "trace: no complete-event track for pid %d rank %d" pid r)
      done;
      let flows =
        List.length
          (List.filter (fun ev -> is_ph "s" ev && num_field "pid" ev = Some pid) evs)
      in
      if flows <> matched then
        failwith
          (Printf.sprintf "trace: pid %d has %d flow arrows for %d matched messages" pid flows
             matched))
    groups

let matched_count (d : Trace.Event.data) =
  List.length (List.filter Trace.Event.matched d.messages)

let run () =
  let ranks = 8 in
  let sort = sample_sort_trace ~ranks in
  let bfs = bfs_trace ~ranks in
  Printf.printf "-- fig8 sample sort (kamping, %d ranks) --\n" ranks;
  Trace.Summary.print (Trace.Analysis.analyze sort);
  Printf.printf "\n-- fig10 BFS (kamping, Erdos-Renyi, %d ranks) --\n" ranks;
  Trace.Summary.print (Trace.Analysis.analyze bfs);
  let events =
    Trace.Chrome.events ~pid:0 ~process_name:"fig8-sample-sort" sort
    @ Trace.Chrome.events ~pid:1 ~process_name:"fig10-bfs" bfs
  in
  let json = Trace.Chrome.wrap events in
  let path = "BENCH_trace.json" in
  let parsed = Bench_report.write ~name:"trace" ~path json in
  validate ~path ~parsed
    ~groups:[ (0, ranks, matched_count sort); (1, ranks, matched_count bfs) ];
  Printf.printf "\n  wrote %s (%d events; validated round-trip, tracks and flows)\n%!" path
    (List.length events)
