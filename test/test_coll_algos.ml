(* Tests for the tuned collective-algorithm subsystem: every pinned variant
   must produce the same (element-wise checked) results as an independent
   reference, the selector must land on the documented crossovers, the
   annotated profiling category must record the choice, and cost-based
   selection must beat the old hardcoded algorithm somewhere. *)

module Algo = Coll_algos.Algo
module Cost = Coll_algos.Cost
module Select = Coll_algos.Select
module Netmodel = Simnet.Netmodel
module C = Mpisim.Collectives
module Comm = Mpisim.Comm
module D = Mpisim.Datatype
module Op = Mpisim.Op
module Profiling = Mpisim.Profiling

let run = Mpisim.Mpi.run_exn

(* The grid deliberately includes p = 1, non-powers of two and count = 0:
   every algorithm must survive its own edge cases. *)
let sizes = [ 1; 2; 3; 4; 5; 8 ]

let counts = [ 0; 1; 5 ]

let check_arrays what expected got =
  Alcotest.(check Tutil.int_array) what expected got

(* ------------- variant equivalence, element-wise ------------- *)

let test_bcast_variants () =
  List.iter
    (fun algo ->
      List.iter
        (fun p ->
          List.iter
            (fun count ->
              let root = min 1 (p - 1) in
              let data = Array.init count (fun i -> 100 + i) in
              let results =
                run ~ranks:p (fun comm ->
                    C.pin_algorithm comm ~coll:"bcast" ~algo;
                    let buf = if Comm.rank comm = root then Array.copy data else Array.make count 0 in
                    C.bcast comm D.int buf ~root;
                    buf)
              in
              Array.iteri
                (fun r got ->
                  check_arrays (Printf.sprintf "bcast[%s] p=%d count=%d rank=%d" algo p count r)
                    data got)
                results)
            counts)
        sizes)
    (List.map Algo.bcast_name Algo.all_bcast)

let test_allreduce_variants () =
  List.iter
    (fun algo ->
      List.iter
        (fun p ->
          List.iter
            (fun count ->
              let expected =
                Array.init count (fun i ->
                    let s = ref 0 in
                    for r = 0 to p - 1 do
                      s := !s + ((r + 1) * (i + 1))
                    done;
                    !s)
              in
              let results =
                run ~ranks:p (fun comm ->
                    C.pin_algorithm comm ~coll:"allreduce" ~algo;
                    let r = Comm.rank comm in
                    let sendbuf = Array.init count (fun i -> (r + 1) * (i + 1)) in
                    let recvbuf = Array.make count 0 in
                    C.allreduce comm D.int Op.int_sum ~sendbuf ~recvbuf ~count;
                    recvbuf)
              in
              Array.iteri
                (fun r got ->
                  check_arrays
                    (Printf.sprintf "allreduce[%s] p=%d count=%d rank=%d" algo p count r)
                    expected got)
                results)
            counts)
        sizes)
    (List.map Algo.allreduce_name Algo.all_allreduce)

(* recursive_doubling is infeasible on non-power-of-two communicators; the
   pin must fall back to a correct algorithm rather than fail. *)
let test_allgather_variants () =
  List.iter
    (fun algo ->
      List.iter
        (fun p ->
          List.iter
            (fun count ->
              let expected =
                Array.init (p * count) (fun j -> ((j / count) * 10) + (j mod count))
              in
              let results =
                run ~ranks:p (fun comm ->
                    C.pin_algorithm comm ~coll:"allgather" ~algo;
                    let r = Comm.rank comm in
                    let sendbuf = Array.init count (fun i -> (r * 10) + i) in
                    let recvbuf = Array.make (p * count) (-1) in
                    C.allgather comm D.int ~sendbuf ~recvbuf ~count;
                    recvbuf)
              in
              Array.iteri
                (fun r got ->
                  check_arrays
                    (Printf.sprintf "allgather[%s] p=%d count=%d rank=%d" algo p count r)
                    expected got)
                results)
            counts)
        sizes)
    (List.map Algo.allgather_name Algo.all_allgather)

let test_allgather_inplace_variants () =
  List.iter
    (fun algo ->
      let p = 4 and count = 3 in
      let expected = Array.init (p * count) (fun j -> ((j / count) * 10) + (j mod count)) in
      let results =
        run ~ranks:p (fun comm ->
            C.pin_algorithm comm ~coll:"allgather" ~algo;
            let r = Comm.rank comm in
            let recvbuf = Array.make (p * count) (-1) in
            for i = 0 to count - 1 do
              recvbuf.((r * count) + i) <- (r * 10) + i
            done;
            C.allgather ~inplace:true comm D.int ~sendbuf:[||] ~recvbuf ~count;
            recvbuf)
      in
      Array.iteri
        (fun r got -> check_arrays (Printf.sprintf "inplace allgather[%s] rank=%d" algo r) expected got)
        results)
    (List.map Algo.allgather_name Algo.all_allgather)

(* Allgatherv: every pinned body must leave each rank's buffer exactly as
   the ring does, gaps included.  The counts are shared; the layouts are
   rank-local, so the last one gives every rank a different layout in the
   same call — which exercises the packed path and would deadlock if the
   selection read the displacements. *)
let agv_counts =
  [
    ("uneven", fun p -> Array.init p (fun i -> (i * 7 + 3) mod 5));
    ("all-empty", fun p -> Array.make p 0);
    ("uniform", fun p -> Array.make p 3);
    ("last-only", fun p -> Array.init p (fun i -> if i = p - 1 then 4 else 0));
  ]

(* Displacements of [counts] laid out in rank order from [base], with
   [gap] free elements after each block, or in reverse rank order. *)
let agv_displs ?(base = 0) ?(gap = 0) ?(reverse = false) counts =
  let p = Array.length counts in
  let d = Array.make p 0 in
  let next = ref base in
  for k = 0 to p - 1 do
    let i = if reverse then p - 1 - k else k in
    d.(i) <- !next;
    next := !next + counts.(i) + gap
  done;
  d

let agv_layouts =
  [
    ("scan", fun _ c -> agv_displs c);
    ("based", fun _ c -> agv_displs ~base:5 c);
    ("gapped", fun _ c -> agv_displs ~gap:2 c);
    ("permuted", fun _ c -> agv_displs ~reverse:true ~gap:1 c);
    ( "per-rank",
      fun r c ->
        match r mod 4 with
        | 0 -> agv_displs c
        | 1 -> agv_displs ~base:3 c
        | 2 -> agv_displs ~gap:1 c
        | _ -> agv_displs ~reverse:true c );
  ]

let run_allgatherv ~algo ~p ~counts ~layout ~inplace =
  run ~ranks:p (fun comm ->
      C.pin_algorithm comm ~coll:"allgatherv" ~algo;
      let r = Comm.rank comm in
      let rdispls = layout r counts in
      let extent = Array.fold_left ( + ) 0 counts + (3 * p) + 5 in
      let recvbuf = Array.make extent (-1) in
      let mine = Array.init counts.(r) (fun j -> (r * 1000) + j) in
      if inplace then begin
        Array.blit mine 0 recvbuf rdispls.(r) counts.(r);
        C.allgatherv ~inplace comm D.int ~sendbuf:[||] ~scount:counts.(r) ~recvbuf ~rcounts:counts
          ~rdispls
      end
      else C.allgatherv comm D.int ~sendbuf:mine ~scount:counts.(r) ~recvbuf ~rcounts:counts ~rdispls;
      (* every block in place, every gap untouched *)
      let expected = Array.make extent (-1) in
      Array.iteri
        (fun i c ->
          for j = 0 to c - 1 do
            expected.(rdispls.(i) + j) <- (i * 1000) + j
          done)
        counts;
      check_arrays (Printf.sprintf "allgatherv[%s] p=%d rank=%d" algo p r) expected recvbuf;
      recvbuf)

let test_allgatherv_variants () =
  List.iter
    (fun p ->
      List.iter
        (fun (cname, counts_of) ->
          let counts = counts_of p in
          List.iter
            (fun (lname, layout) ->
              List.iter
                (fun inplace ->
                  let ring = run_allgatherv ~algo:"ring" ~p ~counts ~layout ~inplace in
                  List.iter
                    (fun algo ->
                      let got = run_allgatherv ~algo ~p ~counts ~layout ~inplace in
                      Alcotest.(check bool)
                        (Printf.sprintf "allgatherv[%s] p=%d %s %s inplace=%b = ring" algo p cname
                           lname inplace)
                        true (got = ring))
                    (List.map Algo.allgatherv_name Algo.all_allgatherv))
                [ false; true ])
            agv_layouts)
        agv_counts)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 16 ]

let test_alltoall_variants () =
  List.iter
    (fun algo ->
      List.iter
        (fun p ->
          List.iter
            (fun count ->
              let results =
                run ~ranks:p (fun comm ->
                    C.pin_algorithm comm ~coll:"alltoall" ~algo;
                    let r = Comm.rank comm in
                    let sendbuf =
                      Array.init (p * count) (fun j ->
                          (r * 1000) + ((j / count) * 10) + (j mod count))
                    in
                    let recvbuf = Array.make (p * count) (-1) in
                    C.alltoall comm D.int ~sendbuf ~recvbuf ~count;
                    recvbuf)
              in
              Array.iteri
                (fun r got ->
                  let expected =
                    Array.init (p * count) (fun j ->
                        ((j / count) * 1000) + (r * 10) + (j mod count))
                  in
                  check_arrays
                    (Printf.sprintf "alltoall[%s] p=%d count=%d rank=%d" algo p count r)
                    expected got)
                results)
            counts)
        sizes)
    (List.map Algo.alltoall_name Algo.all_alltoall)

(* ------------- selection engine ------------- *)

let prm = Netmodel.default

let test_selector_crossovers () =
  let sel = Select.create () in
  (* small payloads keep the latency-optimal incumbents *)
  Alcotest.(check string) "small bcast" "binomial"
    (Algo.bcast_name (Select.bcast sel ~cid:0 prm ~p:16 ~bytes:8));
  Alcotest.(check string) "small allgather stays bruck" "bruck"
    (Algo.allgather_name (Select.allgather sel ~cid:0 prm ~p:16 ~bytes:8));
  (* large payloads cross over to bandwidth-optimal algorithms *)
  Alcotest.(check string) "large bcast" "scatter_allgather"
    (Algo.bcast_name (Select.bcast sel ~cid:0 prm ~p:16 ~bytes:(1 lsl 20)));
  Alcotest.(check string) "small allreduce" "recursive_doubling"
    (Algo.allreduce_name
       (Select.allreduce sel ~cid:0 prm ~p:16 ~bytes:8 ~elems:1 ~op_cost:1e-9 ~commutative:true));
  Alcotest.(check string) "large allreduce" "rabenseifner"
    (Algo.allreduce_name
       (Select.allreduce sel ~cid:0 prm ~p:16 ~bytes:(1 lsl 20) ~elems:(1 lsl 17) ~op_cost:1e-9
          ~commutative:true));
  Alcotest.(check string) "non-commutative allreduce" "reduce_bcast"
    (Algo.allreduce_name
       (Select.allreduce sel ~cid:0 prm ~p:16 ~bytes:8 ~elems:1 ~op_cost:1e-9 ~commutative:false));
  (* allgatherv: doubling for small blocks; the ring where the fold and
     unfold cost more than the rounds they save *)
  let agv ~p ~max_bytes ~total_bytes =
    Algo.allgatherv_name (Select.allgatherv sel ~cid:0 prm ~p ~max_bytes ~total_bytes)
  in
  Alcotest.(check string) "small allgatherv at scale" "recursive_doubling"
    (agv ~p:16 ~max_bytes:16 ~total_bytes:128);
  Alcotest.(check string) "small allgatherv at p = 3 keeps the ring" "ring"
    (agv ~p:3 ~max_bytes:16 ~total_bytes:40);
  Alcotest.(check string) "empty allgatherv sends nothing" "recursive_doubling"
    (agv ~p:3 ~max_bytes:0 ~total_bytes:0);
  Alcotest.(check string) "large allgatherv off a power of two" "ring"
    (agv ~p:12 ~max_bytes:(1 lsl 20) ~total_bytes:(12 lsl 20));
  Alcotest.(check string) "small alltoall at scale" "bruck"
    (Algo.alltoall_name (Select.alltoall sel ~cid:0 prm ~p:16 ~bytes:8));
  Alcotest.(check string) "large alltoall" "pairwise"
    (Algo.alltoall_name (Select.alltoall sel ~cid:0 prm ~p:16 ~bytes:(1 lsl 16)))

let test_pin_table () =
  let sel = Select.create () in
  Alcotest.(check (option string)) "no pin yet" None (Select.pinned sel ~cid:3 ~coll:"bcast");
  Select.pin sel ~cid:3 ~coll:"bcast" ~algo:"scatter_allgather";
  Alcotest.(check (option string)) "pin visible" (Some "scatter_allgather")
    (Select.pinned sel ~cid:3 ~coll:"bcast");
  Alcotest.(check string) "pin wins over cost" "scatter_allgather"
    (Algo.bcast_name (Select.bcast sel ~cid:3 prm ~p:16 ~bytes:8));
  Alcotest.(check string) "other cid unaffected" "binomial"
    (Algo.bcast_name (Select.bcast sel ~cid:4 prm ~p:16 ~bytes:8));
  Select.unpin sel ~cid:3 ~coll:"bcast";
  Alcotest.(check (option string)) "unpinned" None (Select.pinned sel ~cid:3 ~coll:"bcast");
  Alcotest.check_raises "unknown collective"
    (Invalid_argument
       "Coll_algos.Select.pin: unknown collective \"reduce\" (expected one of bcast, allreduce, \
        allgather, allgatherv, alltoall)") (fun () -> Select.pin sel ~cid:0 ~coll:"reduce" ~algo:"binomial");
  Alcotest.check_raises "unknown algorithm"
    (Invalid_argument "Coll_algos.Select.pin: unknown bcast algorithm \"magic\"") (fun () ->
      Select.pin sel ~cid:0 ~coll:"bcast" ~algo:"magic")

let test_pin_size_table () =
  let sel = Select.create () in
  Select.pin_table sel ~cid:7 ~coll:"bcast" [ (4096, "scatter_allgather"); (0, "binomial") ];
  (* rows are kept sorted; last threshold <= bytes wins *)
  Alcotest.(check (option (list (pair int string)))) "table visible, sorted"
    (Some [ (0, "binomial"); (4096, "scatter_allgather") ])
    (Select.pinned_table sel ~cid:7 ~coll:"bcast");
  Alcotest.(check (option string)) "table is not a fixed pin" None
    (Select.pinned sel ~cid:7 ~coll:"bcast");
  Alcotest.(check string) "below threshold" "binomial"
    (Algo.bcast_name (Select.bcast sel ~cid:7 prm ~p:16 ~bytes:8));
  Alcotest.(check string) "at threshold" "scatter_allgather"
    (Algo.bcast_name (Select.bcast sel ~cid:7 prm ~p:16 ~bytes:4096));
  Alcotest.(check string) "above threshold" "scatter_allgather"
    (Algo.bcast_name (Select.bcast sel ~cid:7 prm ~p:16 ~bytes:(1 lsl 20)));
  (* a table whose first row starts above 0 falls back to cost selection
     for smaller payloads *)
  Select.pin_table sel ~cid:8 ~coll:"bcast" [ (1 lsl 30, "scatter_allgather") ];
  Alcotest.(check string) "unmatched payload uses cost" "binomial"
    (Algo.bcast_name (Select.bcast sel ~cid:8 prm ~p:16 ~bytes:8));
  Select.unpin sel ~cid:7 ~coll:"bcast";
  Alcotest.(check (option (list (pair int string)))) "unpin clears tables" None
    (Select.pinned_table sel ~cid:7 ~coll:"bcast");
  Alcotest.check_raises "empty table"
    (Invalid_argument "Coll_algos.Select.pin_table: empty table") (fun () ->
      Select.pin_table sel ~cid:0 ~coll:"bcast" []);
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Coll_algos.Select.pin_table: negative size threshold") (fun () ->
      Select.pin_table sel ~cid:0 ~coll:"bcast" [ (-1, "binomial") ]);
  Alcotest.check_raises "unknown algo in table"
    (Invalid_argument "Coll_algos.Select.pin: unknown bcast algorithm \"magic\"") (fun () ->
      Select.pin_table sel ~cid:0 ~coll:"bcast" [ (0, "magic") ])

let test_hier_cost_gating () =
  (* without a topology profile every hierarchical candidate predicts
     infinity — the reason flat worlds can never auto-select one *)
  Alcotest.(check bool) "bcast gated" true
    (Cost.bcast prm ~p:16 ~bytes:4096 Algo.Bcast_node_leader = infinity);
  Alcotest.(check bool) "allreduce gated" true
    (Cost.allreduce prm ~p:16 ~bytes:4096 ~elems:512 ~op_cost:1e-9 Algo.Ar_node_leader = infinity);
  Alcotest.(check bool) "alltoall smp gated" true
    (Cost.alltoall prm ~p:16 ~bytes:4096 Algo.A2a_smp = infinity);
  Alcotest.(check bool) "alltoall hypergrid gated" true
    (Cost.alltoall prm ~p:16 ~bytes:4096 Algo.A2a_hypergrid = infinity);
  let hier =
    {
      Netmodel.h_intra = Netmodel.intra_node;
      h_inter = Netmodel.default;
      h_nodes = 4;
      h_max_per_node = 4;
    }
  in
  List.iter
    (fun (name, cost) -> Alcotest.(check bool) (name ^ " unlocked") true (cost < infinity))
    [
      ("bcast", Cost.bcast ~hier prm ~p:16 ~bytes:4096 Algo.Bcast_node_leader);
      ( "allreduce",
        Cost.allreduce ~hier prm ~p:16 ~bytes:4096 ~elems:512 ~op_cost:1e-9 Algo.Ar_node_leader );
      ("alltoall smp", Cost.alltoall ~hier prm ~p:16 ~bytes:4096 Algo.A2a_smp);
      ("alltoall hypergrid", Cost.alltoall ~hier prm ~p:16 ~bytes:4096 Algo.A2a_hypergrid);
    ];
  (* flat candidates ignore the profile entirely *)
  Alcotest.(check (float 0.0)) "flat cost independent of hier"
    (Cost.bcast prm ~p:16 ~bytes:4096 Algo.Bcast_binomial)
    (Cost.bcast ~hier prm ~p:16 ~bytes:4096 Algo.Bcast_binomial)

let test_hierarchical_params () =
  let node_size = 4 in
  let net = Netmodel.create_fabric (Netmodel.two_tier ~node_size ~ranks:16 ()) ~ranks:16 in
  let one_node = Netmodel.params_for_group net [| 4; 5; 7 |] in
  Alcotest.(check (float 0.0)) "intra-node latency" Netmodel.intra_node.Netmodel.latency
    one_node.Netmodel.latency;
  let spanning = Netmodel.params_for_group net [| 3; 4 |] in
  Alcotest.(check (float 0.0)) "inter-node latency" Netmodel.default.Netmodel.latency
    spanning.Netmodel.latency

(* ------------- profiling annotations ------------- *)

let test_profiling_annotations () =
  let res =
    Mpisim.Mpi.run ~ranks:4 (fun comm ->
        C.pin_algorithm comm ~coll:"allreduce" ~algo:"rabenseifner";
        let sendbuf = [| Comm.rank comm |] and recvbuf = Array.make 1 0 in
        C.allreduce comm D.int Op.int_sum ~sendbuf ~recvbuf ~count:1;
        C.allreduce comm D.int Op.int_sum ~sendbuf ~recvbuf ~count:1)
  in
  let prof = res.Mpisim.Mpi.profile in
  (* the plain MPI name still counts exactly once per call ... *)
  Alcotest.(check int) "plain calls" 8 (Profiling.calls_of "MPI_Allreduce" prof);
  (* ... and the annotated choice lands in the algorithm category *)
  Alcotest.(check int) "annotated calls" 8
    (Profiling.algo_calls_of "MPI_Allreduce[rabenseifner]" prof);
  Alcotest.(check int) "no other annotation" 0
    (Profiling.algo_calls_of "MPI_Allreduce[ring]" prof)

let test_allgatherv_annotation () =
  let res =
    Mpisim.Mpi.run ~ranks:8 (fun comm ->
        let r = Comm.rank comm in
        let rcounts = Array.init 8 (fun i -> i mod 3) in
        let rdispls = agv_displs rcounts in
        C.allgatherv comm D.int ~sendbuf:(Array.make rcounts.(r) r) ~scount:rcounts.(r)
          ~recvbuf:(Array.make 8 0) ~rcounts ~rdispls)
  in
  let prof = res.Mpisim.Mpi.profile in
  Alcotest.(check int) "plain calls" 8 (Profiling.calls_of "MPI_Allgatherv" prof);
  Alcotest.(check int) "annotated doubling" 8
    (Profiling.algo_calls_of "MPI_Allgatherv[recursive_doubling]" prof);
  Alcotest.(check int) "no ring annotation" 0 (Profiling.algo_calls_of "MPI_Allgatherv[ring]" prof)

let test_noncommutative_annotation () =
  (* a non-commutative operation must take the reduce+bcast path even though
     recursive doubling would be cheaper *)
  let op = Op.of_fun ~commutative:false (fun a b -> a + b) in
  let res =
    Mpisim.Mpi.run ~ranks:4 (fun comm ->
        let sendbuf = [| Comm.rank comm + 1 |] and recvbuf = Array.make 1 0 in
        C.allreduce comm D.int op ~sendbuf ~recvbuf ~count:1;
        recvbuf.(0))
  in
  Array.iter (fun (v : (int, exn) result) ->
      Alcotest.(check int) "sum" 10 (Result.get_ok v))
    res.Mpisim.Mpi.results;
  Alcotest.(check int) "forced reduce_bcast" 4
    (Profiling.algo_calls_of "MPI_Allreduce[reduce_bcast]" res.Mpisim.Mpi.profile)

(* ------------- tuning beats the hardcoded choice ------------- *)

let sim_time_of ~pin body =
  let res =
    Mpisim.Mpi.run ~ranks:16 (fun comm ->
        (match pin with
        | Some (coll, algo) -> C.pin_algorithm comm ~coll ~algo
        | None -> ());
        body comm)
  in
  ignore (Mpisim.Mpi.results_exn res);
  res.Mpisim.Mpi.sim_time

let test_tuning_beats_incumbent () =
  (* tiny alltoall on 16 ranks: Bruck (selected) needs 4 startups instead of
     pairwise's 15 *)
  let body comm =
    let p = Comm.size comm in
    let sendbuf = Array.make p (Comm.rank comm) and recvbuf = Array.make p 0 in
    C.alltoall comm D.int ~sendbuf ~recvbuf ~count:1
  in
  let auto = sim_time_of ~pin:None body in
  let incumbent = sim_time_of ~pin:(Some ("alltoall", "pairwise")) body in
  Alcotest.(check bool)
    (Printf.sprintf "auto (%.2e s) beats pairwise (%.2e s)" auto incumbent)
    true (auto < incumbent);
  (* large allreduce: rabenseifner (selected) beats the old reduce+bcast *)
  let body comm =
    let count = 1 lsl 14 in
    let sendbuf = Array.make count (Comm.rank comm) and recvbuf = Array.make count 0 in
    C.allreduce comm D.int Op.int_sum ~sendbuf ~recvbuf ~count
  in
  let auto = sim_time_of ~pin:None body in
  let incumbent = sim_time_of ~pin:(Some ("allreduce", "reduce_bcast")) body in
  Alcotest.(check bool)
    (Printf.sprintf "auto (%.2e s) beats reduce_bcast (%.2e s)" auto incumbent)
    true (auto < incumbent)

(* ------------- cost model sanity ------------- *)

let test_cost_model_matches_simulation () =
  (* the predictor and the simulator implement the same LogGP arithmetic;
     for a pinned binomial bcast they must agree to rounding *)
  let count = 1024 in
  let bytes = D.bytes D.int count in
  let predicted = Cost.bcast prm ~p:8 ~bytes Algo.Bcast_binomial in
  let t =
    let res =
      Mpisim.Mpi.run ~ranks:8 (fun comm ->
          C.pin_algorithm comm ~coll:"bcast" ~algo:"binomial";
          let buf = Array.make count 0 in
          C.bcast comm D.int buf ~root:0)
    in
    ignore (Mpisim.Mpi.results_exn res);
    res.Mpisim.Mpi.sim_time
  in
  Alcotest.(check bool)
    (Printf.sprintf "prediction %.3e within 5%% of simulation %.3e" predicted t)
    true
    (Float.abs (predicted -. t) <= 0.05 *. t)

let suite =
  [
    Alcotest.test_case "bcast variants agree" `Quick test_bcast_variants;
    Alcotest.test_case "allreduce variants agree" `Quick test_allreduce_variants;
    Alcotest.test_case "allgather variants agree" `Quick test_allgather_variants;
    Alcotest.test_case "allgather in-place variants" `Quick test_allgather_inplace_variants;
    Alcotest.test_case "allgatherv variants match the ring" `Quick test_allgatherv_variants;
    Alcotest.test_case "alltoall variants agree" `Quick test_alltoall_variants;
    Alcotest.test_case "selector crossovers" `Quick test_selector_crossovers;
    Alcotest.test_case "pin table" `Quick test_pin_table;
    Alcotest.test_case "size-keyed pin tables" `Quick test_pin_size_table;
    Alcotest.test_case "hierarchical cost gating" `Quick test_hier_cost_gating;
    Alcotest.test_case "hierarchical params" `Quick test_hierarchical_params;
    Alcotest.test_case "profiling annotations" `Quick test_profiling_annotations;
    Alcotest.test_case "allgatherv annotation" `Quick test_allgatherv_annotation;
    Alcotest.test_case "non-commutative fallback" `Quick test_noncommutative_annotation;
    Alcotest.test_case "tuning beats incumbent" `Quick test_tuning_beats_incumbent;
    Alcotest.test_case "cost model matches simulation" `Quick test_cost_model_matches_simulation;
  ]
