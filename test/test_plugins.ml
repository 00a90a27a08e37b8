(* Tests for the plugin library: sparse (NBX) all-to-all, grid all-to-all,
   reproducible reduce, the distributed sorter and ULFM fault tolerance. *)

open Kamping
module V = Ds.Vec
module D = Mpisim.Datatype

let wrapped ~ranks f = Tutil.run ~ranks (fun raw -> f (Comm.wrap raw))
let vec_int = Alcotest.testable (Ds.Vec.pp Format.pp_print_int) (Ds.Vec.equal ( = ))

(* ---------- sparse all-to-all (NBX) ---------- *)

let test_sparse_basic () =
  let results =
    wrapped ~ranks:5 (fun comm ->
        let r = Comm.rank comm and p = Comm.size comm in
        (* ring pattern: each rank messages its two neighbors *)
        let messages =
          [ ((r + 1) mod p, V.of_list [ r; r ]); ((r + p - 1) mod p, V.of_list [ -r ]) ]
        in
        Kamping_plugins.Sparse_alltoall.exchange comm D.int ~messages)
  in
  Array.iteri
    (fun r got ->
      let p = 5 in
      let left = (r + p - 1) mod p and right = (r + 1) mod p in
      let expected =
        List.sort compare [ (left, [ left; left ]); (right, [ -right ]) ]
      in
      let got = List.map (fun (s, v) -> (s, V.to_list v)) got in
      Alcotest.(check (list (pair int (list int)))) (Printf.sprintf "nbx@%d" r) expected got)
    results

let test_sparse_no_messages () =
  (* a round where nobody sends anything must still terminate *)
  let results = wrapped ~ranks:4 (fun comm -> Kamping_plugins.Sparse_alltoall.exchange comm D.int ~messages:[]) in
  Array.iter (fun got -> Alcotest.(check int) "nothing received" 0 (List.length got)) results

let test_sparse_skewed () =
  (* rank 0 receives from everyone; nobody else receives *)
  let results =
    wrapped ~ranks:6 (fun comm ->
        let r = Comm.rank comm in
        let messages = if r = 0 then [] else [ (0, V.make r r) ] in
        Kamping_plugins.Sparse_alltoall.exchange comm D.int ~messages)
  in
  let at0 = List.map (fun (s, v) -> (s, V.length v)) results.(0) in
  Alcotest.(check (list (pair int int))) "all-to-one" [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 5) ] at0;
  for r = 1 to 5 do
    Alcotest.(check int) "others idle" 0 (List.length results.(r))
  done

let test_sparse_matches_alltoallv () =
  (* NBX must transport exactly what alltoallv would *)
  List.iter
    (fun p ->
      let payload s d = if (s + d) mod 3 = 0 then [] else List.init ((s + d) mod 3) (fun i -> (s * 100) + (d * 10) + i) in
      let results =
        wrapped ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let messages =
              List.init p (fun d -> (d, V.of_list (payload r d)))
              |> List.filter (fun (_, v) -> not (V.is_empty v))
            in
            Kamping_plugins.Sparse_alltoall.exchange comm D.int ~messages)
      in
      Array.iteri
        (fun r got ->
          let expected =
            List.init p (fun s -> (s, payload s r)) |> List.filter (fun (_, l) -> l <> [])
          in
          let got = List.map (fun (s, v) -> (s, V.to_list v)) got in
          Alcotest.(check (list (pair int (list int)))) (Printf.sprintf "p=%d rank=%d" p r) expected
            got)
        results)
    [ 2; 3; 7 ]

let test_sparse_message_count_scales_with_partners () =
  (* the point of NBX: message volume depends on partners, not on p *)
  let run_pattern p =
    (Tutil.run_full ~ranks:p (fun raw ->
         let comm = Comm.wrap raw in
         let r = Comm.rank comm in
         let messages = [ ((r + 1) mod p, V.of_list [ r ]) ] in
         ignore (Kamping_plugins.Sparse_alltoall.exchange comm D.int ~messages)))
      .Mpisim.Mpi.profile
      .Mpisim.Profiling.messages
  in
  let m8 = run_pattern 8 and m32 = run_pattern 32 in
  (* alltoallv counts alone would cost p^2 ints; NBX stays near-linear *)
  Alcotest.(check bool) "sub-quadratic growth" true (float_of_int m32 < 8.0 *. float_of_int m8)

(* ---------- grid all-to-all ---------- *)

let grid_reference p payload r =
  (* expected receive buffer at rank r, grouped by source ascending *)
  List.concat (List.init p (fun s -> payload s r))

let test_grid_matches_alltoallv () =
  List.iter
    (fun p ->
      let payload s d = List.init ((s + (2 * d)) mod 4) (fun i -> (s * 1000) + (d * 10) + i) in
      let results =
        wrapped ~ranks:p (fun comm ->
            let grid = Kamping_plugins.Grid_alltoall.create comm in
            let r = Comm.rank comm in
            let send_buf = V.create () in
            let send_counts = Array.make p 0 in
            for d = 0 to p - 1 do
              let l = payload r d in
              send_counts.(d) <- List.length l;
              List.iter (V.push send_buf) l
            done;
            let out, counts = Kamping_plugins.Grid_alltoall.alltoallv grid D.int ~send_buf ~send_counts in
            (V.to_list out, counts))
      in
      Array.iteri
        (fun r (got, counts) ->
          Alcotest.(check (list int)) (Printf.sprintf "grid p=%d rank=%d" p r)
            (grid_reference p payload r) got;
          Array.iteri
            (fun s c ->
              Alcotest.(check int) (Printf.sprintf "count p=%d r=%d s=%d" p r s)
                (List.length (payload s r)) c)
            counts)
        results)
    [ 2; 3; 4; 5; 7; 9; 12; 16 ]

let test_grid_shape () =
  ignore
    (wrapped ~ranks:7 (fun comm ->
         let grid = Kamping_plugins.Grid_alltoall.create comm in
         Alcotest.(check int) "columns" 3 (Kamping_plugins.Grid_alltoall.columns grid);
         Alcotest.(check int) "rows" 3 (Kamping_plugins.Grid_alltoall.rows grid)))

let test_grid_reuse () =
  (* one grid, several exchanges *)
  ignore
    (wrapped ~ranks:6 (fun comm ->
         let grid = Kamping_plugins.Grid_alltoall.create comm in
         let p = Comm.size comm and r = Comm.rank comm in
         for round = 1 to 3 do
           let send_counts = Array.make p 1 in
           let send_buf = V.init p (fun d -> (round * 100) + (r * 10) + d) in
           let out, _ = Kamping_plugins.Grid_alltoall.alltoallv grid D.int ~send_buf ~send_counts in
           let expected = V.init p (fun s -> (round * 100) + (s * 10) + r) in
           Alcotest.check vec_int (Printf.sprintf "round %d" round) expected out
         done))

(* ---------- hypergrid (d-dimensional) all-to-all ---------- *)

let test_hypergrid_matches_alltoallv () =
  List.iter
    (fun (p, ndims) ->
      let payload s d = List.init ((s + (3 * d)) mod 4) (fun i -> (s * 1000) + (d * 10) + i) in
      let results =
        wrapped ~ranks:p (fun comm ->
            let hg = Kamping_plugins.Hypergrid.create comm ~ndims in
            let r = Comm.rank comm in
            let send_buf = V.create () in
            let send_counts = Array.make p 0 in
            for d = 0 to p - 1 do
              let l = payload r d in
              send_counts.(d) <- List.length l;
              List.iter (V.push send_buf) l
            done;
            let out, counts = Kamping_plugins.Hypergrid.alltoallv hg D.int ~send_buf ~send_counts in
            (V.to_list out, counts))
      in
      Array.iteri
        (fun r (got, counts) ->
          let expected = List.concat (List.init p (fun s -> payload s r)) in
          Alcotest.(check (list int)) (Printf.sprintf "hypergrid p=%d d=%d rank=%d" p ndims r)
            expected got;
          Array.iteri
            (fun s c ->
              Alcotest.(check int) (Printf.sprintf "count p=%d r=%d s=%d" p r s)
                (List.length (payload s r)) c)
            counts)
        results)
    [ (8, 3); (12, 2); (12, 3); (16, 4); (7, 3); (27, 3); (5, 2) ]

let test_hypergrid_fewer_partners () =
  ignore
    (wrapped ~ranks:64 (fun comm ->
         let g2 = Kamping_plugins.Hypergrid.create comm ~ndims:2 in
         let g3 = Kamping_plugins.Hypergrid.create comm ~ndims:3 in
         Alcotest.(check int) "2d partner budget" 14 (Kamping_plugins.Hypergrid.max_partners g2);
         Alcotest.(check int) "3d partner budget" 9 (Kamping_plugins.Hypergrid.max_partners g3)))

let test_hypergrid_bad_dims () =
  ignore
    (wrapped ~ranks:6 (fun comm ->
         Alcotest.(check bool) "dims product mismatch" true
           (match Kamping_plugins.Hypergrid.create ~dims:[| 2; 2 |] comm ~ndims:2 with
           | (_ : Kamping_plugins.Hypergrid.t) -> false
           | exception Mpisim.Errors.Usage_error _ -> true)))

(* ---------- reproducible reduce ---------- *)

let global_data n = Array.init n (fun i -> Float.of_int ((i * 7919 mod 1000) - 500) *. 0.001)

let distribute data p r =
  (* block distribution with uneven tail *)
  let n = Array.length data in
  let base = n / p and extra = n mod p in
  let count = base + (if r < extra then 1 else 0) in
  let start = (r * base) + min r extra in
  V.init count (fun i -> data.(start + i))

let repro_run ~n ~p =
  let data = global_data n in
  (Tutil.run ~ranks:p (fun raw ->
       let comm = Comm.wrap raw in
       Kamping_plugins.Reproducible_reduce.reduce comm D.float ( +. )
         ~send_buf:(distribute data p (Comm.rank comm)))).(0)

let test_repro_reduce_correct () =
  let n = 100 in
  let data = global_data n in
  let expected = Kamping_plugins.Reproducible_reduce.local_tree_reduce ( +. ) (fun i -> data.(i)) 0 n in
  List.iter
    (fun p ->
      let got = repro_run ~n ~p in
      Alcotest.(check bool) (Printf.sprintf "bitwise equal p=%d" p) true
        (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float expected)))
    [ 1; 2; 3; 4; 5; 7; 8; 16 ]

let test_repro_reduce_uneven_and_empty () =
  (* some ranks hold nothing at all *)
  let results =
    Tutil.run ~ranks:6 (fun raw ->
        let comm = Comm.wrap raw in
        let r = Comm.rank comm in
        let mine = if r mod 2 = 0 then V.create () else V.of_list [ float_of_int r ] in
        Kamping_plugins.Reproducible_reduce.reduce comm D.float ( +. ) ~send_buf:mine)
  in
  Array.iter (fun v -> Alcotest.(check (float 0.0)) "sum 1+3+5" 9.0 v) results

let test_repro_vs_naive_divergence () =
  (* demonstrate that the naive tree reduction is NOT reproducible across p
     while the plugin is: use a catastrophic-cancellation-prone series *)
  let n = 64 in
  (* magnitudes spanning 32 decades with mixed signs: the grouping of the
     additions visibly changes the rounded result *)
  let data =
    Array.init n (fun i ->
        (10.0 ** float_of_int ((i * 7 mod 33) - 16)) *. (if i mod 3 = 0 then -1.0 else 1.0))
  in
  let naive p =
    (Tutil.run ~ranks:p (fun raw ->
         let comm = Comm.wrap raw in
         (* pin the binomial reduce+bcast path: the tuned selector may pick
            an algorithm whose grouping happens to agree across these p *)
         Comm.pin_algorithm comm ~coll:"allreduce" ~algo:"reduce_bcast";
         let mine = distribute data p (Comm.rank comm) in
         (* local fold + binomial tree: order depends on p *)
         let local = V.fold_left ( +. ) 0.0 mine in
         Comm.allreduce_single comm D.float Mpisim.Op.float_sum local)).(0)
  in
  let repro p =
    (Tutil.run ~ranks:p (fun raw ->
         let comm = Comm.wrap raw in
         Kamping_plugins.Reproducible_reduce.reduce comm D.float ( +. )
           ~send_buf:(distribute data p (Comm.rank comm)))).(0)
  in
  let naive_results = List.map naive [ 1; 2; 3; 5; 8 ] in
  let repro_results = List.map repro [ 1; 2; 3; 5; 8 ] in
  let all_equal l = List.for_all (fun x -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float (List.hd l))) l in
  Alcotest.(check bool) "plugin reproducible" true (all_equal repro_results);
  Alcotest.(check bool) "naive varies with p (demonstrates the problem)" false
    (all_equal naive_results)

let test_repro_reduce_int_ops () =
  (* works with any op, e.g. max *)
  let results =
    Tutil.run ~ranks:4 (fun raw ->
        let comm = Comm.wrap raw in
        let r = Comm.rank comm in
        Kamping_plugins.Reproducible_reduce.reduce comm D.int max
          ~send_buf:(V.of_list [ r * 3; 7 - r ]))
  in
  Array.iter (fun v -> Alcotest.(check int) "max" 9 v) results

let prop_repro_reduce =
  Tutil.qtest ~count:20 "reproducible reduce equals sequential tree for random data"
    QCheck2.Gen.(pair (int_range 1 50) (int_range 1 9))
    (fun (n, p) ->
      let data = Array.init n (fun i -> float_of_int (((i * 31) mod 17) - 8) /. 3.0) in
      let expected =
        Kamping_plugins.Reproducible_reduce.local_tree_reduce ( +. ) (fun i -> data.(i)) 0 n
      in
      let got =
        (Tutil.run ~ranks:p (fun raw ->
             let comm = Comm.wrap raw in
             Kamping_plugins.Reproducible_reduce.reduce comm D.float ( +. )
               ~send_buf:(distribute data p (Comm.rank comm)))).(0)
      in
      Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float expected))

(* ---------- sorter ---------- *)

let test_sorter_basic () =
  let p = 4 in
  let per_rank = 50 in
  let results =
    wrapped ~ranks:p (fun comm ->
        let rng = Simnet.Rng.split (Simnet.Rng.create 99L) (Comm.rank comm) in
        let data = V.init per_rank (fun _ -> Simnet.Rng.int rng 10_000) in
        let before = V.fold_left ( + ) 0 data in
        let sorted = Kamping_plugins.Sorter.sort comm D.int ~cmp:compare data in
        let ok = Kamping_plugins.Sorter.is_globally_sorted comm D.int ~cmp:compare sorted in
        let after_sum = Comm.allreduce_single comm D.int Mpisim.Op.int_sum (V.fold_left ( + ) 0 sorted) in
        let before_sum = Comm.allreduce_single comm D.int Mpisim.Op.int_sum before in
        (ok, before_sum = after_sum, V.length sorted))
  in
  let total = Array.fold_left (fun acc (_, _, n) -> acc + n) 0 results in
  Alcotest.(check int) "no elements lost" (p * per_rank) total;
  Array.iter
    (fun (ok, preserved, _) ->
      Alcotest.(check bool) "globally sorted" true ok;
      Alcotest.(check bool) "multiset preserved" true preserved)
    results

let test_sorter_single_rank () =
  ignore
    (wrapped ~ranks:1 (fun comm ->
         let sorted = Kamping_plugins.Sorter.sort comm D.int ~cmp:compare (V.of_list [ 3; 1; 2 ]) in
         Alcotest.check vec_int "local" (V.of_list [ 1; 2; 3 ]) sorted))

let test_sorter_custom_order () =
  ignore
    (wrapped ~ranks:3 (fun comm ->
         let r = Comm.rank comm in
         let data = V.init 20 (fun i -> (r * 20) + i) in
         let cmp a b = compare b a (* descending *) in
         let sorted = Kamping_plugins.Sorter.sort comm D.int ~cmp data in
         Alcotest.(check bool) "descending global order" true
           (Kamping_plugins.Sorter.is_globally_sorted comm D.int ~cmp sorted)))

let prop_sorter =
  Tutil.qtest ~count:15 "sample sort sorts any distribution"
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_bound 80) (int_bound 1000)))
    (fun (p, pool) ->
      let results =
        Tutil.run ~ranks:p (fun raw ->
            let comm = Comm.wrap raw in
            let r = Comm.rank comm in
            (* deal the pool round-robin *)
            let mine = List.filteri (fun i _ -> i mod p = r) pool in
            let sorted = Kamping_plugins.Sorter.sort comm D.int ~cmp:compare (V.of_list mine) in
            V.to_list sorted)
      in
      let flat = List.concat (Array.to_list results) in
      flat = List.sort compare pool)

(* ---------- ULFM ---------- *)

let test_ulfm_failure_detected () =
  let res =
    Tutil.run_full ~ranks:4
      ~fail_at:[ (2, 5.0e-6) ]
      (fun raw ->
        let comm = Comm.wrap raw in
        (* wait until after the failure, then try to talk to rank 2 *)
        Comm.compute comm 50.0e-6;
        if Comm.rank comm = 0 then
          match Comm.recv ~count:1 comm D.int ~src:2 with
          | (_ : int V.t) -> `Unexpected
          | exception Mpisim.Errors.Process_failed { world_rank } ->
              Alcotest.(check int) "failed rank identified" 2 world_rank;
              `Detected
        else `Idle)
  in
  (match res.Mpisim.Mpi.results.(0) with
  | Ok `Detected -> ()
  | Ok _ -> Alcotest.fail "failure not detected"
  | Error e -> raise e);
  match res.Mpisim.Mpi.results.(2) with
  | Error Mpisim.Mpi.Rank_died | Error Simnet.Engine.Killed -> ()
  | Ok _ | Error _ -> Alcotest.fail "rank 2 should have died"

let test_ulfm_fig12_recovery () =
  (* The Fig. 12 pattern: allreduce loop, failure mid-run, revoke + shrink,
     survivors finish. *)
  let res =
    Tutil.run_full ~ranks:6
      ~fail_at:[ (3, 30.0e-6) ]
      (fun raw ->
        let comm = ref (Comm.wrap raw) in
        let completed = ref 0 in
        let rounds = ref 0 in
        while !completed < 5 && !rounds < 50 do
          incr rounds;
          Comm.compute !comm 20.0e-6;
          try
            let (_ : int) = Comm.allreduce_single !comm D.int Mpisim.Op.int_sum 1 in
            incr completed
          with Mpisim.Errors.Process_failed _ | Mpisim.Errors.Comm_revoked ->
            if not (Kamping_plugins.Ulfm.is_revoked !comm) then Kamping_plugins.Ulfm.revoke !comm;
            comm := Kamping_plugins.Ulfm.shrink !comm;
            (* survivors may have observed different numbers of successful
               rounds: resynchronize the counter so the collective call
               sequences line up again *)
            completed := Comm.allreduce_single !comm D.int Mpisim.Op.int_min !completed
        done;
        (!completed, Comm.size !comm))
  in
  Array.iteri
    (fun r outcome ->
      if r <> 3 then begin
        match outcome with
        | Ok (completed, size) ->
            Alcotest.(check int) (Printf.sprintf "rank %d finished all rounds" r) 5 completed;
            Alcotest.(check int) "shrunk to survivors" 5 size
        | Error e -> raise e
      end)
    res.Mpisim.Mpi.results

let test_ulfm_with_recovery_combinator () =
  let res =
    Tutil.run_full ~ranks:4
      ~fail_at:[ (1, 10.0e-6) ]
      (fun raw ->
        let comm = Comm.wrap raw in
        if Comm.rank comm = 1 then begin
          (* will die mid-compute *)
          Comm.compute comm 1.0;
          None
        end
        else
          Kamping_plugins.Ulfm.with_recovery comm (fun c ->
              Comm.compute c 30.0e-6;
              Comm.allreduce_single c D.int Mpisim.Op.int_sum 1)
          |> Option.map (fun (v, c) -> (v, Comm.size c)))
  in
  Array.iteri
    (fun r outcome ->
      if r <> 1 then
        match outcome with
        | Ok (Some (sum, size)) ->
            Alcotest.(check int) "survivor count" 3 size;
            Alcotest.(check int) "reduced over survivors" 3 sum
        | Ok None -> Alcotest.fail "recovery gave up"
        | Error e -> raise e)
    res.Mpisim.Mpi.results

(* A persistent failure schedule: one rank dies in every attempt.  With
   [?max_attempts] the combinator must stop with a diagnostic exception
   naming the attempt count instead of silently looping or returning
   [None]. *)
let test_ulfm_max_attempts_exhausted () =
  let res =
    Mpisim.Mpi.run ~ranks:4
      ~fail_at:[ (1, 10.0e-6); (2, 100.0e-6); (3, 200.0e-6) ]
      (fun raw ->
        let comm = Comm.wrap raw in
        match
          Kamping_plugins.Ulfm.with_recovery ~max_attempts:3 comm (fun c ->
              while true do
                Comm.compute c 20.0e-6;
                ignore (Comm.allreduce_single c D.int Mpisim.Op.int_sum 1)
              done)
        with
        | _ -> `Completed
        | exception Kamping_plugins.Ulfm.Recovery_exhausted { attempts } ->
            `Exhausted attempts)
  in
  (match res.Mpisim.Mpi.results.(0) with
  | Ok (`Exhausted 3) -> ()
  | Ok `Completed -> Alcotest.fail "infinite body cannot complete"
  | Ok (`Exhausted n) -> Alcotest.failf "expected 3 attempts, got %d" n
  | Error e -> raise e);
  (* Bounded attempts still succeed when the failures stop. *)
  let ok =
    Mpisim.Mpi.run ~ranks:4 ~fail_at:[ (1, 10.0e-6) ] (fun raw ->
        let comm = Comm.wrap raw in
        if Comm.rank comm = 1 then None
        else
          Kamping_plugins.Ulfm.with_recovery ~max_attempts:3 comm (fun c ->
              Comm.compute c 30.0e-6;
              Comm.allreduce_single c D.int Mpisim.Op.int_sum 1)
          |> Option.map fst)
  in
  (match ok.Mpisim.Mpi.results.(0) with
  | Ok (Some 3) -> ()
  | Ok _ -> Alcotest.fail "bounded recovery should have completed over 3 survivors"
  | Error e -> raise e);
  Alcotest.(check bool) "max_attempts = 0 rejected" true
    (match
       Mpisim.Mpi.run_exn ~ranks:1 (fun raw ->
           Kamping_plugins.Ulfm.with_recovery ~max_attempts:0 (Comm.wrap raw) (fun _ -> ()))
     with
    | _ -> false
    | exception Mpisim.Errors.Usage_error _ -> true)

let test_ulfm_agree () =
  let res =
    Tutil.run_full ~ranks:4
      ~fail_at:[ (2, 1.0e-6) ]
      (fun raw ->
        let comm = Comm.wrap raw in
        if Comm.rank comm = 2 then begin
          Comm.compute comm 1.0;
          -1
        end
        else begin
          Comm.compute comm 20.0e-6;
          Kamping_plugins.Ulfm.agree comm (0b1110 lor Comm.rank comm)
        end)
  in
  Array.iteri
    (fun r outcome ->
      if r <> 2 then
        match outcome with
        | Ok v -> Alcotest.(check int) (Printf.sprintf "agree@%d" r) 0b1110 v
        | Error e -> raise e)
    res.Mpisim.Mpi.results

(* A member that dies before contributing fails the agreement at every
   survivor instead of leaving them parked for good. *)
let test_ulfm_agree_member_dies () =
  let res =
    Tutil.run_full ~ranks:4
      ~fail_at:[ (2, 5.0e-6) ]
      (fun raw ->
        let comm = Comm.wrap raw in
        if Comm.rank comm = 2 then Comm.compute comm 1.0;
        match Kamping_plugins.Ulfm.agree comm 1 with
        | v -> Ok v
        | exception Mpisim.Errors.Process_failed { world_rank } -> Error world_rank)
  in
  Array.iteri
    (fun r outcome ->
      if r <> 2 then
        match outcome with
        | Ok (Error 2) -> ()
        | Ok _ -> Alcotest.failf "agree@%d completed without rank 2" r
        | Error e -> raise e)
    res.Mpisim.Mpi.results

(* Revocation interrupts a pending agreement, and a later call on the
   revoked communicator fails at once. *)
let test_ulfm_agree_revoked () =
  let res =
    Tutil.run_full ~ranks:3 (fun raw ->
        let comm = Comm.wrap raw in
        let attempt () =
          match Kamping_plugins.Ulfm.agree comm 1 with
          | _ -> false
          | exception Mpisim.Errors.Comm_revoked -> true
        in
        if Comm.rank comm = 2 then begin
          Comm.compute comm 50.0e-6;
          Kamping_plugins.Ulfm.revoke comm;
          attempt ()
        end
        else attempt ())
  in
  Array.iteri
    (fun r outcome ->
      match outcome with
      | Ok interrupted -> Alcotest.(check bool) (Printf.sprintf "agree@%d revoked" r) true interrupted
      | Error e -> raise e)
    res.Mpisim.Mpi.results

let suite =
  [
    Alcotest.test_case "nbx: ring pattern" `Quick test_sparse_basic;
    Alcotest.test_case "nbx: empty round terminates" `Quick test_sparse_no_messages;
    Alcotest.test_case "nbx: skewed all-to-one" `Quick test_sparse_skewed;
    Alcotest.test_case "nbx: equals alltoallv transport" `Quick test_sparse_matches_alltoallv;
    Alcotest.test_case "nbx: messages scale with partners" `Quick
      test_sparse_message_count_scales_with_partners;
    Alcotest.test_case "grid: equals alltoallv transport" `Quick test_grid_matches_alltoallv;
    Alcotest.test_case "grid: shape" `Quick test_grid_shape;
    Alcotest.test_case "grid: reusable across rounds" `Quick test_grid_reuse;
    Alcotest.test_case "hypergrid: equals alltoallv transport" `Quick test_hypergrid_matches_alltoallv;
    Alcotest.test_case "hypergrid: partner budget shrinks with d" `Quick test_hypergrid_fewer_partners;
    Alcotest.test_case "hypergrid: dims validation" `Quick test_hypergrid_bad_dims;
    Alcotest.test_case "repro reduce: bitwise equal across p" `Quick test_repro_reduce_correct;
    Alcotest.test_case "repro reduce: empty/uneven ranks" `Quick test_repro_reduce_uneven_and_empty;
    Alcotest.test_case "repro reduce: naive diverges, plugin does not" `Quick
      test_repro_vs_naive_divergence;
    Alcotest.test_case "repro reduce: arbitrary op" `Quick test_repro_reduce_int_ops;
    prop_repro_reduce;
    Alcotest.test_case "sorter: sample sort" `Quick test_sorter_basic;
    Alcotest.test_case "sorter: single rank" `Quick test_sorter_single_rank;
    Alcotest.test_case "sorter: custom order" `Quick test_sorter_custom_order;
    prop_sorter;
    Alcotest.test_case "ulfm: failure detection" `Quick test_ulfm_failure_detected;
    Alcotest.test_case "ulfm: Fig. 12 revoke+shrink recovery" `Quick test_ulfm_fig12_recovery;
    Alcotest.test_case "ulfm: with_recovery combinator" `Quick test_ulfm_with_recovery_combinator;
    Alcotest.test_case "ulfm: max_attempts exhaustion" `Quick test_ulfm_max_attempts_exhausted;
    Alcotest.test_case "ulfm: agreement" `Quick test_ulfm_agree;
    Alcotest.test_case "ulfm: agreement fails when a member dies" `Quick
      test_ulfm_agree_member_dies;
    Alcotest.test_case "ulfm: revocation interrupts agreement" `Quick test_ulfm_agree_revoked;
  ]
