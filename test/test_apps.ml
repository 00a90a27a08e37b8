(* Application-level tests: every binding variant of sample sort and BFS
   must compute the same (correct) result; the suffix array must match a
   naive reference; the three label-propagation variants must agree; the
   RAxML layers must be equivalent. *)

module G = Graphgen.Distgraph
module Gen = Graphgen.Generators
module V = Ds.Vec

(* ---------- sample sort ---------- *)

let ss_variants =
  [
    ("mpi", Apps.Ss_mpi.sort);
    ("kamping", Apps.Ss_kamping.sort);
    ("boost", Apps.Ss_boost.sort);
    ("rwth", Apps.Ss_rwth.sort);
    ("mpl", Apps.Ss_mpl.sort);
  ]

let run_sample_sort sorter ~p ~n_per_rank =
  Tutil.run ~ranks:p (fun comm ->
      let data =
        Apps.Ss_common.generate_input ~rank:(Mpisim.Comm.rank comm) ~n_per_rank ~seed:3
      in
      sorter comm data)

let test_sample_sort_variants_agree () =
  let p = 5 and n_per_rank = 200 in
  let reference =
    let all =
      List.init p (fun r -> Apps.Ss_common.generate_input ~rank:r ~n_per_rank ~seed:3)
      |> Array.concat
    in
    Array.sort compare all;
    all
  in
  List.iter
    (fun (name, sorter) ->
      let results = run_sample_sort sorter ~p ~n_per_rank in
      let flat = Array.concat (Array.to_list results) in
      Alcotest.(check int) (name ^ ": no elements lost") (p * n_per_rank) (Array.length flat);
      Alcotest.(check bool) (name ^ ": globally sorted output") true (flat = reference))
    ss_variants

let test_sample_sort_various_p () =
  List.iter
    (fun p ->
      let results = run_sample_sort Apps.Ss_kamping.sort ~p ~n_per_rank:64 in
      let flat = Array.concat (Array.to_list results) in
      let sorted = Array.copy flat in
      Array.sort compare sorted;
      Alcotest.(check bool) (Printf.sprintf "sorted p=%d" p) true (flat = sorted))
    [ 1; 2; 3; 8 ]

(* ---------- BFS ---------- *)

let bfs_variants =
  [
    ("mpi", Apps.Bfs_mpi.bfs);
    ("kamping", Apps.Bfs_kamping.bfs);
    ("boost", Apps.Bfs_boost.bfs);
    ("rwth", Apps.Bfs_rwth.bfs);
    ("mpl", Apps.Bfs_mpl.bfs);
    ("sparse", Apps.Bfs_strategies.bfs_sparse);
    ("grid", Apps.Bfs_strategies.bfs_grid);
    ("neighbor", Apps.Bfs_strategies.bfs_neighbor);
    ("neighbor-dyn", Apps.Bfs_strategies.bfs_neighbor_dynamic);
  ]

(* Sequential reference BFS on the full edge list. *)
let reference_bfs ~n edges src =
  let adj = Array.make n [] in
  List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
  let dist = Array.make n Apps.Bfs_common.undef in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) = Apps.Bfs_common.undef then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
      adj.(u)
  done;
  dist

let gather_edges family ~p ~n ~d =
  List.init p (fun rank -> Gen.generate family ~rank ~comm_size:p ~global_n:n ~avg_degree:d ~seed:11)
  |> List.concat_map (fun g ->
         let acc = ref [] in
         for i = 0 to g.G.local_n - 1 do
           G.iter_neighbors g i (fun u -> acc := (G.global_of_local g i, u) :: !acc)
         done;
         !acc)

let run_bfs variant family ~p ~n ~d ~src =
  Tutil.run ~ranks:p (fun comm ->
      let graph =
        Gen.generate family ~rank:(Mpisim.Comm.rank comm) ~comm_size:p ~global_n:n ~avg_degree:d
          ~seed:11
      in
      variant comm graph ~src)

let test_bfs_variants_agree () =
  let p = 4 and n = 120 and d = 3 and src = 7 in
  List.iter
    (fun family ->
      let expected = reference_bfs ~n (gather_edges family ~p ~n ~d) src in
      List.iter
        (fun (name, variant) ->
          let results = run_bfs variant family ~p ~n ~d ~src in
          let flat = Array.concat (Array.to_list results) in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s matches reference" name (Gen.family_name family))
            true (flat = expected))
        bfs_variants)
    [ Gen.Erdos_renyi; Gen.Rgg2d; Gen.Rhg ]

let test_bfs_unreachable () =
  (* a graph with no edges: only the source is reached *)
  let p = 3 and n = 30 in
  let results =
    Tutil.run ~ranks:p (fun comm ->
        let edges = V.create () in
        let graph = G.of_edges ~comm_size:p ~rank:(Mpisim.Comm.rank comm) ~global_n:n edges in
        Apps.Bfs_kamping.bfs comm graph ~src:5)
  in
  let flat = Array.concat (Array.to_list results) in
  Array.iteri
    (fun v d ->
      if v = 5 then Alcotest.(check int) "source" 0 d
      else Alcotest.(check int) "unreachable" Apps.Bfs_common.undef d)
    flat

let test_bfs_various_p () =
  let n = 90 and d = 4 and src = 0 in
  let family = Gen.Erdos_renyi in
  let expected = reference_bfs ~n (gather_edges family ~p:1 ~n ~d) src in
  List.iter
    (fun p ->
      let results = run_bfs Apps.Bfs_kamping.bfs family ~p ~n ~d ~src in
      let flat = Array.concat (Array.to_list results) in
      Alcotest.(check bool) (Printf.sprintf "p=%d" p) true (flat = expected))
    [ 1; 2; 5; 9 ]

(* Host-cost gate on engine events.  Events are exact, unlike wall time,
   so a change that brings back an event per send completion (or adds any
   other) fails here.  [events + elided] is the count with every send
   completion scheduled eagerly, the engine's count before send requests
   completed in reserved slots. *)
let test_bfs_event_gate () =
  let p = 16 and n = 2048 and d = 8 and seed = 11 in
  let r =
    Explore.unexplored (fun () ->
        Mpisim.Mpi.run ~ranks:p (fun comm ->
            let g = Gen.generate Gen.Rgg2d ~rank:(Mpisim.Comm.rank comm) ~comm_size:p ~global_n:n
                ~avg_degree:d ~seed
            in
            Apps.Bfs_kamping.bfs comm g ~src:0))
  in
  ignore (Mpisim.Mpi.results_exn r);
  Alcotest.(check int) "events" 39_091 r.Mpisim.Mpi.events;
  Alcotest.(check int) "events + elided" 59_773 (r.Mpisim.Mpi.events + r.Mpisim.Mpi.elided);
  Alcotest.(check int) "messages" 21_040 r.Mpisim.Mpi.profile.Mpisim.Profiling.messages;
  Alcotest.(check string) "sim time" "0x1.25266acedc1bp-9" (Printf.sprintf "%h" r.Mpisim.Mpi.sim_time)

(* ---------- suffix array ---------- *)

let run_suffix_array text p =
  let n = String.length text in
  let results =
    Tutil.run ~ranks:p (fun comm ->
        let first, local_n =
          G.block_range ~global_n:n ~comm_size:(Mpisim.Comm.size comm) (Mpisim.Comm.rank comm)
        in
        let local = Array.init local_n (fun i -> text.[first + i]) in
        Apps.Suffix_array.build comm ~text:local ~global_n:n)
  in
  Array.concat (Array.to_list results)

let test_suffix_array_known () =
  (* banana: SA = [5;3;1;0;4;2] *)
  let sa = run_suffix_array "banana" 2 in
  Alcotest.(check Tutil.int_array) "banana" [| 5; 3; 1; 0; 4; 2 |] sa

let test_suffix_array_matches_naive () =
  List.iter
    (fun (text, p) ->
      let expected = Apps.Suffix_array.naive_suffix_array text in
      let got = run_suffix_array text p in
      Alcotest.(check Tutil.int_array) (Printf.sprintf "%S p=%d" text p) expected got)
    [
      ("mississippi", 3);
      ("aaaaaaaa", 4);
      ("abcabcabc", 2);
      ("z", 1);
      ("ababababab", 5);
      ("thequickbrownfoxjumpsoverthelazydog", 4);
    ]

let prop_suffix_array =
  Tutil.qtest ~count:15 "suffix array equals naive reference"
    QCheck2.Gen.(pair (string_size ~gen:(char_range 'a' 'c') (int_range 1 40)) (int_range 1 6))
    (fun (text, p) ->
      run_suffix_array text p = Apps.Suffix_array.naive_suffix_array text)

(* ---------- DCX ---------- *)

let run_dcx text p =
  let n = String.length text in
  let results =
    Tutil.run ~ranks:p (fun raw ->
        let comm = Kamping.Comm.wrap raw in
        let first, local_n =
          Apps.Dist_util.block_of ~n ~p:(Kamping.Comm.size comm) (Kamping.Comm.rank comm)
        in
        let local = Array.init local_n (fun i -> text.[first + i]) in
        Apps.Dcx.build comm ~text:local ~global_n:n)
  in
  Array.concat (Array.to_list results)

let test_dcx_known () =
  Alcotest.(check Tutil.int_array) "banana" [| 5; 3; 1; 0; 4; 2 |] (run_dcx "banana" 2)

let test_dcx_matches_naive () =
  List.iter
    (fun (text, p) ->
      Alcotest.(check Tutil.int_array)
        (Printf.sprintf "%S p=%d" text p)
        (Apps.Suffix_array.naive_suffix_array text)
        (run_dcx text p))
    [ ("mississippi", 3); ("aaaaaaaa", 4); ("abcabcabc", 2); ("z", 1); ("abracadabra", 5) ]

let test_dcx_recursion_depth () =
  (* long low-entropy text: forces several recursion levels past the
     sequential base case *)
  let rng = Simnet.Rng.create 9L in
  let text = String.init 700 (fun _ -> Char.chr (97 + Simnet.Rng.int rng 2)) in
  let expected = Apps.Suffix_array.naive_suffix_array text in
  List.iter
    (fun p ->
      Alcotest.(check Tutil.int_array) (Printf.sprintf "n=700 p=%d" p) expected (run_dcx text p))
    [ 1; 5; 13 ]

let test_dcx_agrees_with_prefix_doubling () =
  let rng = Simnet.Rng.create 123L in
  let text = String.init 300 (fun _ -> Char.chr (97 + Simnet.Rng.int rng 4)) in
  Alcotest.(check Tutil.int_array) "two algorithms agree" (run_suffix_array text 6) (run_dcx text 6)

let prop_dcx =
  Tutil.qtest ~count:10 "dcx equals naive reference"
    QCheck2.Gen.(pair (string_size ~gen:(char_range 'a' 'b') (int_range 1 60)) (int_range 1 5))
    (fun (text, p) -> run_dcx text p = Apps.Suffix_array.naive_suffix_array text)

(* ---------- label propagation ---------- *)

let run_lp variant ~p ~n ~d =
  Tutil.run ~ranks:p (fun comm ->
      let graph =
        Gen.generate Gen.Rgg2d ~rank:(Mpisim.Comm.rank comm) ~comm_size:p ~global_n:n
          ~avg_degree:d ~seed:23
      in
      variant comm graph ~iterations:3 ~max_cluster_size:(n / 4))

let test_lp_variants_agree () =
  let p = 4 and n = 160 and d = 6 in
  let base = run_lp Apps.Lp_mpi.run ~p ~n ~d in
  let kamping = run_lp Apps.Lp_kamping.run ~p ~n ~d in
  let custom = run_lp Apps.Lp_custom.run ~p ~n ~d in
  Alcotest.(check bool) "kamping = mpi" true (kamping = base);
  Alcotest.(check bool) "custom = mpi" true (custom = base);
  (* labels actually coarsened: fewer distinct labels than vertices *)
  let flat = Array.concat (Array.to_list base) in
  let distinct = List.length (List.sort_uniq compare (Array.to_list flat)) in
  Alcotest.(check bool)
    (Printf.sprintf "clustering happened (%d labels for %d vertices)" distinct n)
    true
    (distinct < n / 2)

(* ---------- RAxML layer ---------- *)

let test_raxml_layers_equivalent () =
  let run variant =
    Tutil.run ~ranks:4 (fun comm -> Apps.Raxml_layer.search ~variant ~iterations:30 ~taxa:50 comm)
  in
  let before = run `Before and after = run `After in
  Array.iteri
    (fun r (b : Apps.Raxml_layer.stats) ->
      let a = after.(r) in
      Alcotest.(check (float 0.0)) "same likelihood" b.Apps.Raxml_layer.final_logl
        a.Apps.Raxml_layer.final_logl;
      (* "the mean running times are less than one standard deviation
         apart": here, within 2% of simulated time *)
      let rel =
        Float.abs (b.Apps.Raxml_layer.sim_seconds -. a.Apps.Raxml_layer.sim_seconds)
        /. b.Apps.Raxml_layer.sim_seconds
      in
      Alcotest.(check bool)
        (Printf.sprintf "runtime parity at rank %d (delta %.3f%%)" r (100.0 *. rel))
        true (rel < 0.02))
    before

let suite =
  [
    Alcotest.test_case "sample sort: all bindings agree" `Quick test_sample_sort_variants_agree;
    Alcotest.test_case "sample sort: various p" `Quick test_sample_sort_various_p;
    Alcotest.test_case "bfs: all variants match reference" `Quick test_bfs_variants_agree;
    Alcotest.test_case "bfs: unreachable vertices" `Quick test_bfs_unreachable;
    Alcotest.test_case "bfs: various p" `Quick test_bfs_various_p;
    Alcotest.test_case "bfs: engine event gate" `Quick test_bfs_event_gate;
    Alcotest.test_case "suffix array: banana" `Quick test_suffix_array_known;
    Alcotest.test_case "suffix array: naive reference" `Quick test_suffix_array_matches_naive;
    prop_suffix_array;
    Alcotest.test_case "dcx: banana" `Quick test_dcx_known;
    Alcotest.test_case "dcx: naive reference" `Quick test_dcx_matches_naive;
    Alcotest.test_case "dcx: deep recursion" `Quick test_dcx_recursion_depth;
    Alcotest.test_case "dcx: agrees with prefix doubling" `Quick test_dcx_agrees_with_prefix_doubling;
    prop_dcx;
    Alcotest.test_case "label propagation: variants agree" `Quick test_lp_variants_agree;
    Alcotest.test_case "raxml: layers equivalent" `Quick test_raxml_layers_equivalent;
  ]
