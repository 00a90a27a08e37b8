(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index), plus a Bechamel
   microbenchmark of host-level wrapper overhead.

   Usage:  dune exec bench/main.exe -- experiment ...
   Experiments: table1 fig8 fig10 types overhead suffix labelprop raxml
                ulfm reprored ablation colltuning trace ckpt explore serving
                engine mpi4 apps micro all
   "colltuning" writes BENCH_collectives.json; "trace" writes
   BENCH_trace.json; "ckpt" writes BENCH_ckpt.json; "explore" writes
   BENCH_explore.json; "serving" writes BENCH_serving.json; "engine"
   writes BENCH_engine.json; "mpi4" writes BENCH_mpi4.json; "apps" writes
   BENCH_apps.json.  With no arguments (or --help) the usage is
   printed. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec

(* ---------------- Bechamel microbenchmarks ---------------- *)

(* Host wall-clock of whole simulated operations: the KaMPIng wrapper layer
   (buffers, records, optional arguments) must not add measurable cost over
   calling the simulated MPI layer directly. *)
let micro_tests () =
  let open Bechamel in
  let ranks = 8 in
  let plain_allgatherv () =
    Mpisim.Mpi.run ~ranks (fun comm ->
        let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
        let rc = Array.make p 0 in
        Mpisim.Collectives.allgather comm D.int ~sendbuf:[| r + 1 |] ~recvbuf:rc ~count:1;
        let rd = Array.make p 0 in
        for i = 1 to p - 1 do
          rd.(i) <- rd.(i - 1) + rc.(i - 1)
        done;
        let out = Array.make (rd.(p - 1) + rc.(p - 1)) 0 in
        Mpisim.Collectives.allgatherv comm D.int ~sendbuf:(Array.make (r + 1) r) ~scount:(r + 1)
          ~recvbuf:out ~rcounts:rc ~rdispls:rd)
  in
  let kamping_allgatherv () =
    Mpisim.Mpi.run ~ranks (fun comm ->
        let kc = K.wrap comm in
        ignore (K.allgatherv kc D.int ~send_buf:(V.make (K.rank kc + 1) (K.rank kc))))
  in
  let kamping_counts_given () =
    Mpisim.Mpi.run ~ranks (fun comm ->
        let kc = K.wrap comm in
        let counts = Array.init ranks (fun i -> i + 1) in
        ignore
          (K.allgatherv ~recv_counts:counts kc D.int ~send_buf:(V.make (K.rank kc + 1) (K.rank kc))))
  in
  let serde_payload = List.init 1000 (fun i -> i) in
  let serde_codec = Serde.Codec.(list int) in
  let serde_bytes = Serde.Codec.encode serde_codec serde_payload in
  [
    Test.make ~name:"sim: hand-rolled allgatherv (8 ranks)" (Staged.stage plain_allgatherv);
    Test.make ~name:"sim: kamping allgatherv, defaults" (Staged.stage kamping_allgatherv);
    Test.make ~name:"sim: kamping allgatherv, counts given" (Staged.stage kamping_counts_given);
    Test.make ~name:"serde: encode 1000 ints"
      (Staged.stage (fun () -> Serde.Codec.encode serde_codec serde_payload));
    Test.make ~name:"serde: decode 1000 ints"
      (Staged.stage (fun () -> Serde.Codec.decode serde_codec serde_bytes));
    Test.make ~name:"vec: push 1000"
      (Staged.stage (fun () ->
           let v = Ds.Vec.create () in
           for i = 1 to 1000 do
             Ds.Vec.push v i
           done));
  ]

let microbench () =
  let open Bechamel in
  Printf.printf "\n== Bechamel microbenchmarks (host wall-clock per run) ==\n%!";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (micro_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | Some [] | None -> ())
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-50s %12.1f ns/run\n" name ns)
    (List.sort compare !rows);
  (* the wrapper-overhead claim at host level *)
  let ends_with key (name, _) =
    String.length name >= String.length key
    && String.sub name (String.length name - String.length key) (String.length key) = key
  in
  let find key = List.find_opt (ends_with key) !rows in
  match (find "hand-rolled allgatherv (8 ranks)", find "kamping allgatherv, defaults") with
  | Some (_, plain), Some (_, kamping) ->
      Printf.printf "  kamping-vs-plain host overhead: %+.1f%%\n"
        (100.0 *. ((kamping /. plain) -. 1.0))
  | _ -> ()

(* ---------------- dispatch ---------------- *)

let experiments =
  [
    ("table1", Experiments.Loc_table.run);
    ("fig8", Experiments.Fig8_sort.run);
    ("fig10", Experiments.Fig10_bfs.run);
    ("types", Experiments.Types_bench.run);
    ("overhead", Experiments.Overhead.run);
    ("suffix", Experiments.Suffix_exp.run);
    ("labelprop", Experiments.Labelprop_exp.run);
    ("raxml", Experiments.Raxml_exp.run);
    ("ulfm", Experiments.Ulfm_exp.run);
    ("reprored", Experiments.Reprored_exp.run);
    ("ablation", Experiments.Ablation.run);
    ("colltuning", Experiments.Coll_tuning_exp.run);
    ("trace", Experiments.Trace_exp.run);
    ("ckpt", Experiments.Ckpt_exp.run);
    ("explore", Experiments.Explore_exp.run);
    ("serving", Experiments.Serve_exp.run);
    ("engine", Experiments.Engine_exp.run);
    ("mpi4", Experiments.Mpi4_exp.run);
    ("apps", Experiments.Apps_exp.run);
    ("micro", microbench);
  ]

let usage oc =
  Printf.fprintf oc "usage: %s experiment [experiment ...]\n" Sys.argv.(0);
  Printf.fprintf oc "       %s all\n\n" Sys.argv.(0);
  Printf.fprintf oc "experiments:\n";
  List.iter (fun (name, _) -> Printf.fprintf oc "  %s\n" name) experiments;
  Printf.fprintf oc "  all  (run every experiment)\n"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] || List.mem "--help" args || List.mem "-h" args then begin
    usage stdout;
    exit (if args = [] || args = [ "--help" ] || args = [ "-h" ] then 0 else 2)
  end;
  let requested =
    if List.mem "all" args then List.map fst experiments else args
  in
  (* Validate every name before running anything: a typo late in the list
     must not cost the experiments before it. *)
  let unknown = List.filter (fun n -> not (List.mem_assoc n experiments)) requested in
  if unknown <> [] then begin
    List.iter (fun n -> Printf.eprintf "unknown experiment %S\n" n) unknown;
    Printf.eprintf "\n";
    usage stderr;
    exit 2
  end;
  List.iter
    (fun name ->
      Printf.printf "\n######## %s ########\n%!" name;
      List.assoc name experiments ())
    requested;
  print_newline ()
