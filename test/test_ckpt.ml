(* Checkpoint/restart subsystem tests: schedule math, shard bundle
   round-trips, and end-to-end recovery of the restartable apps under
   deterministic time-based failure schedules. *)

module S = Ckpt.Schedule
module B = Ckpt.Bundle
module Gen = Graphgen.Generators
module K = Kamping.Comm

let close ?(eps = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %g ~ %g" name expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. Float.max 1. (Float.abs expected))

let raises_usage name f =
  Alcotest.(check bool) name true
    (match f () with _ -> false | exception Mpisim.Errors.Usage_error _ -> true)

(* ---------- schedule math ---------- *)

let test_young_daly_formulas () =
  let delta = 0.01 and mtbf = 100. in
  close "young" (sqrt (2. *. delta *. mtbf)) (S.young_interval ~ckpt_cost:delta ~mtbf);
  let r = sqrt (delta /. (2. *. mtbf)) in
  close "daly eq.37"
    (sqrt (2. *. delta *. mtbf) *. (1. +. (r /. 3.) +. (r *. r /. 9.)) -. delta)
    (S.daly_interval ~ckpt_cost:delta ~mtbf);
  (* Degenerate regimes. *)
  close "daly fallback: ckpt_cost >= 2 MTBF" 1.0
    (S.daly_interval ~ckpt_cost:5.0 ~mtbf:1.0);
  Alcotest.(check bool) "young: failure-free is infinity" true
    (S.young_interval ~ckpt_cost:delta ~mtbf:infinity = infinity);
  Alcotest.(check bool) "daly: failure-free is infinity" true
    (S.daly_interval ~ckpt_cost:delta ~mtbf:infinity = infinity);
  (* Daly refines Young downward for non-negligible delta/M but stays
     within the same order of magnitude. *)
  let y = S.young_interval ~ckpt_cost:1.0 ~mtbf:50. in
  let d = S.daly_interval ~ckpt_cost:1.0 ~mtbf:50. in
  Alcotest.(check bool) "daly < young when delta non-negligible" true (d < y);
  Alcotest.(check bool) "daly positive" true (d > 0.)

let test_schedule_every_n () =
  let t = S.create (S.Every_n 3) ~ckpt_cost:0.1 ~failure_rate:0.01 in
  Alcotest.(check bool) "not due initially" false (S.due t);
  S.tick t;
  S.tick t;
  Alcotest.(check bool) "not due after 2" false (S.due t);
  S.tick t;
  Alcotest.(check bool) "due after 3" true (S.due t);
  S.record_checkpoint t ~iter_cost:0.5;
  Alcotest.(check bool) "reset after checkpoint" false (S.due t);
  Alcotest.(check bool) "every_n ignores time" true (S.target_interval t = infinity);
  Alcotest.(check string) "policy name" "every_3" (S.policy_name (S.policy t))

let test_schedule_time_based () =
  (* Interval 2.0 with 0.5 s iterations -> period 4 iterations. *)
  let t = S.create (S.Interval 2.0) ~ckpt_cost:0.1 ~failure_rate:0.01 in
  close "target" 2.0 (S.target_interval t);
  S.record_checkpoint t ~iter_cost:0.5;
  Alcotest.(check int) "period = interval / iter_cost" 4 (S.period t);
  for _ = 1 to 3 do
    S.tick t
  done;
  Alcotest.(check bool) "not due below period" false (S.due t);
  S.tick t;
  Alcotest.(check bool) "due at period" true (S.due t);
  S.reset t;
  Alcotest.(check bool) "reset clears counter" false (S.due t);
  (* Interval infinity (failure-free baseline) never fires. *)
  let never = S.create (S.Interval infinity) ~ckpt_cost:0.1 ~failure_rate:0. in
  S.record_checkpoint never ~iter_cost:0.5;
  for _ = 1 to 1000 do
    S.tick never
  done;
  Alcotest.(check bool) "interval infinity never due" false (S.due never);
  Alcotest.(check string) "never name" "never" (S.policy_name (S.policy never));
  (* Daly resolves the target from cost and rate. *)
  let d = S.create S.Daly ~ckpt_cost:0.01 ~failure_rate:0.01 in
  close "daly target" (S.daly_interval ~ckpt_cost:0.01 ~mtbf:100.) (S.target_interval d)

let test_schedule_validation () =
  raises_usage "Every_n 0" (fun () -> S.create (S.Every_n 0) ~ckpt_cost:0.1 ~failure_rate:0.);
  raises_usage "negative interval" (fun () ->
      S.create (S.Interval (-1.)) ~ckpt_cost:0.1 ~failure_rate:0.);
  raises_usage "nan interval" (fun () ->
      S.create (S.Interval Float.nan) ~ckpt_cost:0.1 ~failure_rate:0.);
  raises_usage "negative failure rate" (fun () ->
      S.create S.Daly ~ckpt_cost:0.1 ~failure_rate:(-0.5))

let test_predict_ckpt_cost () =
  let params = Simnet.Netmodel.default in
  let c = S.predict_ckpt_cost params ~p:4 ~bytes:4096 in
  Alcotest.(check bool) "positive" true (c > 0.);
  Alcotest.(check bool) "monotone in bytes" true
    (S.predict_ckpt_cost params ~p:4 ~bytes:65536 > c);
  (* Single rank: no buddy exchange, just serialization. *)
  Alcotest.(check bool) "p=1 cheaper than p=4" true
    (S.predict_ckpt_cost params ~p:1 ~bytes:4096 < c)

(* ---------- shard bundle ---------- *)

let kv_codec = Serde.Codec.(list (pair int int))

(* The golden bytes pin the bundle layout: checkpoint sizes, and with
   them every simulated checkpoint cost, depend on it. *)
let test_bundle_roundtrip () =
  let b = B.encode ~name:"state" kv_codec [ (1, 2); (300, -5) ] ~round:7 in
  Alcotest.(check string) "golden bytes"
    "\x04\x0astate\x0c\x04\x02\x04\xd8\x04\x09\x0around\x02\x0e" (Bytes.to_string b);
  Alcotest.(check (pair (list (pair int int)) int)) "decoded" ([ (1, 2); (300, -5) ], 7)
    (B.decode ~name:"state" kv_codec b);
  let s = "seven" in
  Alcotest.(check (pair string int)) "string state" (s, 0)
    (B.decode ~name:"tag" Serde.Codec.string (B.encode ~name:"tag" Serde.Codec.string s ~round:0))

let test_bundle_rejects () =
  let corrupt name b =
    Alcotest.(check bool) name true
      (match B.decode ~name:"x" Serde.Codec.int b with
      | _ -> false
      | exception Serde.Archive.Corrupt _ -> true)
  in
  let b = B.encode ~name:"x" Serde.Codec.int 5 ~round:3 in
  (* A bundle of another application must not restore here. *)
  corrupt "wrong name" (B.encode ~name:"y" Serde.Codec.int 5 ~round:3);
  let one_entry =
    Serde.Archive.build (fun w ->
        Serde.Archive.write_varint w 1;
        Serde.Archive.write_string w "x";
        Serde.Archive.write_bytes w (Serde.Codec.encode Serde.Codec.int 5))
  in
  corrupt "wrong entry count" one_entry;
  corrupt "truncated" (Bytes.sub b 0 (Bytes.length b - 1));
  corrupt "trailing bytes" (Bytes.cat b (Bytes.make 1 'x'));
  (* "round" names the counter's entry, so no state may take it. *)
  raises_usage "name \"round\" is reserved" (fun () ->
      Tutil.run ~ranks:1 (fun comm ->
          Ckpt.run_sharded ~name:"round" Serde.Codec.int ~n_shards:1 (K.wrap comm)
            ~init:Fun.id (fun _ _ ~round:_ -> false)))

(* ---------- end-to-end recovery ---------- *)

let bfs_args = (Gen.Erdos_renyi, 96, 4, 11, 0)

(* The failure-free reference: the plain KaMPIng BFS run on [n_shards]
   physical ranks — shard [s]'s block is rank [s]'s dist array. *)
let bfs_reference ~n_shards =
  let family, global_n, avg_degree, seed, src = bfs_args in
  Tutil.run ~ranks:n_shards (fun comm ->
      let g =
        Gen.generate family ~rank:(Mpisim.Comm.rank comm) ~comm_size:n_shards ~global_n
          ~avg_degree ~seed
      in
      Apps.Bfs_kamping.bfs comm g ~src)

let run_resilient_bfs ?fail_at ?policy ?failure_rate ?max_attempts ~ranks ~n_shards () =
  let family, global_n, avg_degree, seed, src = bfs_args in
  Mpisim.Mpi.run ?fail_at ~ranks (fun comm ->
      Apps.Bfs_resilient.run ?policy ?failure_rate ?max_attempts (K.wrap comm) ~family
        ~n_shards ~global_n ~avg_degree ~seed ~src)

(* Collect the per-shard outputs from the surviving ranks and compare
   them to the reference, shard by shard. *)
let check_against_reference name reference (res : _ Mpisim.Mpi.run_result) ~n_shards =
  let got = Hashtbl.create 16 in
  Array.iter
    (function
      | Ok pairs ->
          List.iter
            (fun (s, arr) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: shard %d reported once" name s)
                false (Hashtbl.mem got s);
              Hashtbl.replace got s arr)
            pairs
      | Error _ -> ())
    res.Mpisim.Mpi.results;
  Alcotest.(check int) (name ^ ": all shards covered") n_shards (Hashtbl.length got);
  for s = 0 to n_shards - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "%s: shard %d bit-identical" name s)
      reference.(s) (Hashtbl.find got s)
  done

let test_bfs_no_failure_matches_plain () =
  let n_shards = 4 in
  let reference = bfs_reference ~n_shards in
  (* Same rank count as shards, and fewer ranks than shards. *)
  List.iter
    (fun ranks ->
      let res =
        run_resilient_bfs ~ranks ~n_shards ~policy:(S.Every_n 2) ()
      in
      check_against_reference
        (Printf.sprintf "failure-free p=%d" ranks)
        reference res ~n_shards)
    [ 4; 3; 1 ]

(* Kill each rank in turn partway through the run: the survivors must
   reproduce the reference bit for bit whichever buddy pair is hit. *)
let test_bfs_recovers_from_each_single_failure () =
  let n_shards = 4 in
  let reference = bfs_reference ~n_shards in
  let base = run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1) () in
  let t_total = base.Mpisim.Mpi.sim_time in
  List.iter
    (fun victim ->
      List.iter
        (fun frac ->
          let res =
            run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1)
              ~fail_at:[ (victim, frac *. t_total) ]
              ()
          in
          let name = Printf.sprintf "victim %d at %.0f%%" victim (frac *. 100.) in
          check_against_reference name reference res ~n_shards;
          (* The victim dies either blocked in an operation ([Rank_died])
             or mid-compute ([Engine.Killed]); every survivor finishes. *)
          Array.iteri
            (fun r slot ->
              match slot with
              | Ok _ when r <> victim -> ()
              | Error (Mpisim.Mpi.Rank_died | Simnet.Engine.Killed) when r = victim -> ()
              | _ -> Alcotest.failf "%s: unexpected outcome at rank %d" name r)
            res.Mpisim.Mpi.results)
        [ 0.3; 0.7 ])
    [ 0; 1; 2; 3 ]

(* Odd communicator size: rank p-1 is its own XOR partner and ships the
   extra copy to rank 0; killing either end of that arrangement must
   still recover. *)
let test_bfs_recovers_odd_size () =
  let n_shards = 5 in
  let reference = bfs_reference ~n_shards in
  let base = run_resilient_bfs ~ranks:5 ~n_shards ~policy:(S.Every_n 1) () in
  let t_total = base.Mpisim.Mpi.sim_time in
  List.iter
    (fun victim ->
      let res =
        run_resilient_bfs ~ranks:5 ~n_shards ~policy:(S.Every_n 1)
          ~fail_at:[ (victim, 0.5 *. t_total) ]
          ()
      in
      check_against_reference
        (Printf.sprintf "odd size victim %d" victim)
        reference res ~n_shards)
    [ 0; 4; 2 ]

(* Daly scheduling with an uneven shard distribution (p does not divide
   n_shards, so per-rank snapshot sizes differ).  The schedule must be
   resolved from the allreduce-agreed maximum snapshot size: a locally
   derived Daly period diverges between ranks, desynchronizing the
   collective checkpoint calls into a deadlock (regression for the
   schedule-resolution fix).  Swept across failure rates so the period
   lands in several rounding regimes, failure-free and with a mid-run
   kill. *)
let test_bfs_daly_uneven_shards () =
  let n_shards = 8 in
  let ranks = 6 in
  let reference = bfs_reference ~n_shards in
  List.iter
    (fun failure_rate ->
      let res =
        run_resilient_bfs ~ranks ~n_shards ~policy:S.Daly ~failure_rate ()
      in
      check_against_reference
        (Printf.sprintf "daly uneven failure-free rate=%g" failure_rate)
        reference res ~n_shards)
    [ 1e3; 1e4; 1e5; 1e6 ];
  let base = run_resilient_bfs ~ranks ~n_shards ~policy:S.Daly ~failure_rate:1e4 () in
  let t = base.Mpisim.Mpi.sim_time in
  List.iter
    (fun victim ->
      let res =
        run_resilient_bfs ~ranks ~n_shards ~policy:S.Daly ~failure_rate:1e4
          ~fail_at:[ (victim, 0.5 *. t) ]
          ()
      in
      check_against_reference
        (Printf.sprintf "daly uneven victim %d" victim)
        reference res ~n_shards)
    [ 0; 5 ]

(* Two failures in sequence (separated enough for a recovery in
   between): survivors keep shrinking and still finish. *)
let test_bfs_recovers_twice () =
  let n_shards = 4 in
  let reference = bfs_reference ~n_shards in
  let base = run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1) () in
  let t = base.Mpisim.Mpi.sim_time in
  let res =
    run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1)
      ~fail_at:[ (1, 0.25 *. t); (2, 2.0 *. t) ]
      ()
  in
  check_against_reference "two failures" reference res ~n_shards

let test_attempts_exhausted () =
  let n_shards = 4 in
  let base = run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1) () in
  let t = base.Mpisim.Mpi.sim_time in
  let res =
    run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1) ~max_attempts:1
      ~fail_at:[ (3, 0.5 *. t) ]
      ()
  in
  let exhausted =
    Array.exists
      (function Error (Ckpt.Attempts_exhausted { attempts = 1 }) -> true | _ -> false)
      res.Mpisim.Mpi.results
  in
  Alcotest.(check bool) "survivors raise Attempts_exhausted" true exhausted

(* Kill a whole buddy pair between two checkpoints: with both copies of
   their shards gone, no complete epoch survives. *)
let test_unrecoverable_buddy_pair () =
  let n_shards = 4 in
  let base = run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1) () in
  let t = base.Mpisim.Mpi.sim_time in
  let res =
    run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1)
      ~fail_at:[ (2, 0.5 *. t); (3, 0.5 *. t) ]
      ()
  in
  let unrecoverable =
    Array.exists
      (function Error (Ckpt.Unrecoverable _) -> true | _ -> false)
      res.Mpisim.Mpi.results
  in
  Alcotest.(check bool) "survivors raise Unrecoverable" true unrecoverable

let test_run_sharded_validation () =
  let run ~max_attempts ~n_shards () =
    Tutil.run ~ranks:1 (fun comm ->
        Ckpt.run_sharded ~max_attempts ~name:"x" Serde.Codec.int ~n_shards (K.wrap comm)
          ~init:Fun.id (fun _ _ ~round:_ -> false))
  in
  raises_usage "n_shards = 0" (run ~max_attempts:8 ~n_shards:0);
  raises_usage "max_attempts = 0" (run ~max_attempts:0 ~n_shards:1)

(* ---------- label propagation ---------- *)

let lp_args = (Gen.Rgg2d, 80, 4, 5, 6, 40)

let lp_reference ~n_shards =
  let family, global_n, avg_degree, seed, iterations, max_cluster_size = lp_args in
  Tutil.run ~ranks:n_shards (fun comm ->
      let g =
        Gen.generate family ~rank:(Mpisim.Comm.rank comm) ~comm_size:n_shards ~global_n
          ~avg_degree ~seed
      in
      Apps.Lp_kamping.run comm g ~iterations ~max_cluster_size)

let run_resilient_lp ?fail_at ?policy ~ranks ~n_shards () =
  let family, global_n, avg_degree, seed, iterations, max_cluster_size = lp_args in
  Mpisim.Mpi.run ?fail_at ~ranks (fun comm ->
      Apps.Lp_resilient.run ?policy (K.wrap comm) ~family ~n_shards ~global_n ~avg_degree
        ~seed ~iterations ~max_cluster_size)

let test_lp_bit_identical () =
  let n_shards = 4 in
  let reference = lp_reference ~n_shards in
  (* Failure-free on fewer ranks than shards. *)
  let clean = run_resilient_lp ~ranks:3 ~n_shards ~policy:(S.Every_n 2) () in
  check_against_reference "lp failure-free p=3" reference clean ~n_shards;
  (* Mid-run failure. *)
  let base = run_resilient_lp ~ranks:4 ~n_shards ~policy:(S.Every_n 1) () in
  let t = base.Mpisim.Mpi.sim_time in
  let res =
    run_resilient_lp ~ranks:4 ~n_shards ~policy:(S.Every_n 1)
      ~fail_at:[ (1, 0.5 *. t) ]
      ()
  in
  check_against_reference "lp recovered" reference res ~n_shards

(* ---------- the sharded driver ---------- *)

(* Every shard sends two messages to its successor, one to the shard
   three ahead and one to itself; whatever the placement, each inbox
   lists its messages by source shard, in emission order per source. *)
let test_route_placement_independent () =
  let n_shards = 5 in
  let emitted s =
    let next = (s + 1) mod n_shards in
    [ (next, "a"); ((s + 3) mod n_shards, "b"); (s, "c"); (next, "d") ]
  in
  let expected d =
    List.concat_map
      (fun s -> List.filter_map (fun (dst, x) -> if dst = d then Some (s, x) else None) (emitted s))
      (List.init n_shards Fun.id)
  in
  let inbox_codec =
    Serde.Codec.(conv ~name:"inbox" (fun r -> !r) (fun l -> ref l) (list (pair int string)))
  in
  List.iter
    (fun ranks ->
      let res =
        Tutil.run ~ranks (fun comm ->
            Ckpt.run_sharded ~name:"inbox" inbox_codec ~n_shards (K.wrap comm)
              ~init:(fun _ -> ref [])
              (fun ctx shards ~round ->
                round = 0
                && begin
                     let inbox =
                       Ckpt.route ctx Serde.Codec.string
                         (List.concat_map
                            (fun (s, _) -> List.map (fun (d, x) -> (s, d, x)) (emitted s))
                            shards)
                     in
                     List.iter (fun (s, got) -> got := inbox s) shards;
                     true
                   end))
      in
      let seen = Hashtbl.create 8 in
      Array.iter (List.iter (fun (s, got) -> Hashtbl.replace seen s !got)) res;
      Alcotest.(check int) (Printf.sprintf "p=%d: every shard reported" ranks) n_shards
        (Hashtbl.length seen);
      Hashtbl.iter
        (fun d got ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "p=%d: inbox of shard %d" ranks d)
            (expected d) got)
        seen)
    [ 1; 2; 3; 5 ]

(* A ring accumulator over three shards: every round each shard folds
   its predecessor's value into its own.  Returns each rank's shard
   values and its recovery count. *)
let acc_shards = 3

let run_acc ?fail_at ?(policy = S.Every_n 2) ?(rounds = 12) ~ranks () =
  let acc_codec = Serde.Codec.(conv ~name:"acc" (fun r -> !r) (fun v -> ref v) int) in
  Mpisim.Mpi.run ?fail_at ~ranks (fun comm ->
      let recovered = ref 0 in
      let shards =
        Ckpt.run_sharded ~policy ~name:"acc" acc_codec ~n_shards:acc_shards (K.wrap comm)
          ~on_complete:(fun ctx -> recovered := Ckpt.recoveries ctx)
          ~init:(fun s -> ref (s + 1))
          (fun ctx shards ~round ->
            round < rounds
            && begin
                 let inbox =
                   Ckpt.route ctx Serde.Codec.int
                     (List.map (fun (s, acc) -> (s, (s + 1) mod acc_shards, !acc + round)) shards)
                 in
                 List.iter
                   (fun (s, acc) -> List.iter (fun (_, v) -> acc := (3 * !acc) + v) (inbox s))
                   shards;
                 Kamping.Comm.compute (Ckpt.comm ctx) 1e-6;
                 true
               end)
      in
      (List.map (fun (s, acc) -> (s, [| !acc |])) shards, !recovered))

let acc_reference ?rounds () =
  let free = run_acc ?rounds ~ranks:acc_shards () in
  let reference = Array.make acc_shards [||] in
  Array.iter
    (function Ok (l, _) -> List.iter (fun (s, v) -> reference.(s) <- v) l | Error _ -> ())
    free.Mpisim.Mpi.results;
  reference

let strip_recoveries (r : _ Mpisim.Mpi.run_result) =
  { r with Mpisim.Mpi.results = Array.map (Result.map fst) r.Mpisim.Mpi.results }

(* Four ranks, so one rank owns no shard: after a kill the survivors
   resume at the restored round (the shard-less rank learns it from the
   others) and end with the failure-free values. *)
let test_sharded_round_survives_recovery () =
  let reference = acc_reference () in
  let base = run_acc ~ranks:4 () in
  let killed = run_acc ~ranks:4 ~fail_at:[ (1, 0.5 *. base.Mpisim.Mpi.sim_time) ] () in
  check_against_reference "failure-free p=4" reference (strip_recoveries base)
    ~n_shards:acc_shards;
  check_against_reference "recovered p=4" reference (strip_recoveries killed)
    ~n_shards:acc_shards;
  Array.iteri
    (fun r slot ->
      match slot with
      | Ok (_, recoveries) ->
          Alcotest.(check int) (Printf.sprintf "rank %d recovered once" r) 1 recoveries
      | Error _ -> Alcotest.(check int) "only the victim dies" 1 r)
    killed.Mpisim.Mpi.results

(* A second kill after the first one, swept across the recovery and the
   rounds that follow it.  Killed during the recovery, every survivor
   must go back into recovery instead of some staying parked in shrink or
   in the epoch agreement.  Killed after it but before the next scheduled
   checkpoint, the survivors restore the epoch written at the end of the
   recovery, which must carry the restored round, not the round the
   failed attempt had reached. *)
let test_sharded_second_kill () =
  let rounds = 24 and policy = S.Every_n 6 in
  let reference = acc_reference ~rounds () in
  let t = (run_acc ~policy ~rounds ~ranks:5 ()).Mpisim.Mpi.sim_time in
  List.iter
    (fun frac ->
      let res =
        run_acc ~policy ~rounds ~ranks:5
          ~fail_at:[ (1, 0.2 *. t); (2, frac *. t) ]
          ()
      in
      let label = Printf.sprintf "second kill at %.2f" frac in
      check_against_reference label reference (strip_recoveries res) ~n_shards:acc_shards;
      Array.iteri
        (fun r slot ->
          match slot with
          | Ok _ -> ()
          | Error _ -> Alcotest.(check bool) (label ^ ": only the victims die") true (r = 1 || r = 2))
        res.Mpisim.Mpi.results)
    [ 0.24; 0.27; 0.28; 0.30; 0.31; 0.35; 0.40; 0.45; 0.50 ]

(* ---------- checker interplay ---------- *)

(* A recovery cycle (buddy sendrecvs cut short by the failure, revoke,
   shrink, agree, redistribution) must be clean at [Communication]
   level: the damaged-comm exclusions swallow the legitimately abandoned
   buddy traffic. *)
let test_recovery_checker_clean () =
  let n_shards = 4 in
  let reference = bfs_reference ~n_shards in
  let base = run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1) () in
  let t = base.Mpisim.Mpi.sim_time in
  let res =
    Mpisim.Checker.with_level Mpisim.Checker.Communication (fun () ->
        run_resilient_bfs ~ranks:4 ~n_shards ~policy:(S.Every_n 1)
          ~fail_at:[ (2, 0.5 *. t) ]
          ())
  in
  (match res.Mpisim.Mpi.diagnostics with
  | [] -> ()
  | diags ->
      Alcotest.failf "recovery not checker-clean: %s"
        (String.concat "\n" (List.map Mpisim.Checker.to_string diags)));
  check_against_reference "checked recovery" reference res ~n_shards

(* ---------- deterministic failure schedules (mpisim satellite) ---------- *)

let test_fail_at_deterministic () =
  let run () =
    Mpisim.Mpi.run ~ranks:4 ~fail_at:[ (2, 1e-4) ] (fun comm ->
        let kc = K.wrap comm in
        (* Every surviving rank reduces until it observes the failure,
           then revokes (the ULFM recipe) so peers still blocked on it
           abort too instead of deadlocking. *)
        let rec loop acc =
          match K.allreduce_single kc Mpisim.Datatype.int Mpisim.Op.int_sum 1 with
          | n -> loop (acc + n)
          | exception Mpisim.Errors.Process_failed { world_rank } ->
              Kamping_plugins.Ulfm.revoke kc;
              (world_rank, acc)
          | exception Mpisim.Errors.Comm_revoked -> (-1, acc)
        in
        loop 0)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same sim time" true
    (a.Mpisim.Mpi.sim_time = b.Mpisim.Mpi.sim_time);
  Alcotest.(check int) "same event count" a.Mpisim.Mpi.events b.Mpisim.Mpi.events;
  Array.iteri
    (fun r slot ->
      match (slot, b.Mpisim.Mpi.results.(r)) with
      | Ok x, Ok y -> Alcotest.(check bool) "same outcome" true (x = y)
      | Error _, Error _ -> ()
      | _ -> Alcotest.fail "divergent outcomes across identical runs")
    a.Mpisim.Mpi.results;
  let detected =
    Array.exists (function Ok (2, n) -> n > 0 | _ -> false) a.Mpisim.Mpi.results
  in
  Alcotest.(check bool) "some survivor pinpoints rank 2 mid-run" true detected;
  (* Validation happens before anything is armed. *)
  raises_usage "rank out of range" (fun () ->
      Mpisim.Mpi.run ~ranks:2 ~fail_at:[ (5, 1.0) ] (fun _ -> ()));
  raises_usage "nan time" (fun () ->
      Mpisim.Mpi.run ~ranks:2 ~fail_at:[ (0, Float.nan) ] (fun _ -> ()))

let suite =
  [
    Alcotest.test_case "schedule: young/daly formulas" `Quick test_young_daly_formulas;
    Alcotest.test_case "schedule: every_n policy" `Quick test_schedule_every_n;
    Alcotest.test_case "schedule: time-based policies" `Quick test_schedule_time_based;
    Alcotest.test_case "schedule: validation" `Quick test_schedule_validation;
    Alcotest.test_case "schedule: LogGP cost prediction" `Quick test_predict_ckpt_cost;
    Alcotest.test_case "bundle: round-trip" `Quick test_bundle_roundtrip;
    Alcotest.test_case "bundle: rejects bad input" `Quick test_bundle_rejects;
    Alcotest.test_case "bfs: failure-free matches plain" `Quick
      test_bfs_no_failure_matches_plain;
    Alcotest.test_case "bfs: recovers from each single failure" `Quick
      test_bfs_recovers_from_each_single_failure;
    Alcotest.test_case "bfs: recovers at odd size" `Quick test_bfs_recovers_odd_size;
    Alcotest.test_case "bfs: daly with uneven shards" `Quick test_bfs_daly_uneven_shards;
    Alcotest.test_case "bfs: recovers twice" `Quick test_bfs_recovers_twice;
    Alcotest.test_case "attempts exhausted" `Quick test_attempts_exhausted;
    Alcotest.test_case "unrecoverable buddy-pair loss" `Quick
      test_unrecoverable_buddy_pair;
    Alcotest.test_case "run_sharded validation" `Quick test_run_sharded_validation;
    Alcotest.test_case "lp: bit-identical with and without failure" `Quick
      test_lp_bit_identical;
    Alcotest.test_case "sharded: route order is placement-independent" `Quick
      test_route_placement_independent;
    Alcotest.test_case "sharded: round counter survives recovery" `Quick
      test_sharded_round_survives_recovery;
    Alcotest.test_case "sharded: second kill during and after recovery" `Quick
      test_sharded_second_kill;
    Alcotest.test_case "recovery is checker-clean" `Quick test_recovery_checker_clean;
    Alcotest.test_case "fail_at: deterministic schedule" `Quick test_fail_at_deterministic;
  ]
