(* Schedule-exploration & chaos-testing harness (PR 5): strategy
   behaviour, replay tokens, shrinking, chaos determinism, the watchdog,
   the differential gallery suite, and the mutation smoke proving the
   harness actually finds a real (reintroduced) schedule bug. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module P2p = Mpisim.P2p
module Request = Mpisim.Request
module Checker = Mpisim.Checker

(* substring search, to avoid depending on the Str library *)
let find_sub msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub msg i m = sub then Some i else go (i + 1) in
  go 0

let contains msg sub = find_sub msg sub <> None

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* A schedule-independent mix of collectives. *)
let coll_workload raw =
  let comm = K.wrap raw in
  let r = K.rank comm in
  let sum = K.allreduce_single comm D.int Mpisim.Op.int_sum (r + 1) in
  K.barrier comm;
  let gathered = K.allgather comm D.int ~send_buf:(Ds.Vec.make 1 (r * r)) in
  (sum, Ds.Vec.to_list gathered)

(* Rank 0 drains three concurrently-available wildcard messages and
   reports the order in which the sources matched. *)
let wildcard_workload comm =
  let r = Mpisim.Comm.rank comm in
  if r = 0 then begin
    (* let all three messages arrive and sit in the unexpected queue *)
    Mpisim.Comm.compute comm 200.0e-6;
    List.init 3 (fun _ ->
        let buf = [| 0 |] in
        let st = P2p.recv comm D.int buf ~src:P2p.any_source ~tag:7 in
        st.Request.source)
  end
  else begin
    P2p.send comm D.int [| r |] ~dst:0 ~tag:7;
    []
  end

(* Rank 0 waits on two requests that are both already complete and
   reports which one wait_any observed. *)
let completion_workload comm =
  let r = Mpisim.Comm.rank comm in
  if r = 0 then begin
    let b1 = [| 0 |] and b2 = [| 0 |] in
    let r1 = P2p.irecv comm D.int b1 ~src:1 ~tag:1 in
    let r2 = P2p.irecv comm D.int b2 ~src:2 ~tag:2 in
    Mpisim.Comm.compute comm 200.0e-6;
    let idx, _ = Request.wait_any [ r1; r2 ] in
    ignore (Request.wait (if idx = 0 then r2 else r1));
    idx
  end
  else begin
    P2p.send comm D.int [| r * 11 |] ~dst:0 ~tag:r;
    -1
  end

(* An ordered stream: FIFO must survive chaos jitter. *)
let stream_workload comm =
  let r = Mpisim.Comm.rank comm in
  if r = 1 then begin
    for i = 0 to 9 do
      P2p.send comm D.int [| i |] ~dst:0 ~tag:5
    done;
    [||]
  end
  else
    Array.init 10 (fun _ ->
        let b = [| 0 |] in
        ignore (P2p.recv comm D.int b ~src:1 ~tag:5);
        b.(0))

(* The fault_tolerance recovery pattern, small enough for many runs. *)
let resilient_rounds raw =
  let comm = ref (K.wrap raw) in
  let completed = ref 0 in
  while !completed < 5 do
    K.compute !comm 10.0e-6;
    try
      let (_ : int) = K.allreduce_single !comm D.int Mpisim.Op.int_sum 1 in
      incr completed
    with Mpisim.Errors.Process_failed _ | Mpisim.Errors.Comm_revoked ->
      if not (Kamping_plugins.Ulfm.is_revoked !comm) then Kamping_plugins.Ulfm.revoke !comm;
      comm := Kamping_plugins.Ulfm.shrink !comm;
      completed := K.allreduce_single !comm D.int Mpisim.Op.int_min !completed
  done;
  (K.size !comm, !completed)

let digest_of o =
  match Explore.verdict_of o with
  | Explore.Pass d -> d
  | Explore.Fail reason -> Alcotest.failf "expected a clean run, got: %s" reason

let rank0_of o =
  match o.Explore.outcome with
  | Explore.Finished r -> (
      match r.Mpisim.Mpi.results.(0) with Ok v -> v | Error e -> raise e)
  | Explore.Crashed e -> raise e

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)

let test_token_round_trip () =
  let tokens =
    [
      { Explore.strategy = Explore.Default; chaos = Explore.no_chaos; trace = [||] };
      { Explore.strategy = Explore.Random { seed = 42 };
        chaos = { Explore.jitter = 1.5e-6; jitter_buckets = 8; kills = []; kill_buckets = 16 };
        trace = [| 1; 0; 2; 7 |] };
      { Explore.strategy = Explore.Pct { seed = 7; depth = 5 };
        chaos =
          { Explore.jitter = 0.0;
            jitter_buckets = 4;
            kills = [ (3, 100.0e-6, 400.0e-6); (0, 0.125, 0.25) ];
            kill_buckets = 32 };
        trace = [| 0; 0; 3 |] };
      { Explore.strategy = Explore.Delay { seed = 3; budget = 16 };
        chaos = Explore.no_chaos;
        trace = Array.init 40 (fun i -> i mod 5) };
    ]
  in
  List.iter
    (fun t ->
      let s = Explore.token_to_string t in
      Alcotest.(check bool) (Printf.sprintf "round-trip %s" s) true
        (Explore.token_of_string s = t))
    tokens;
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" bad) true
        (match Explore.token_of_string bad with
        | _ -> false
        | exception Failure _ -> true))
    [ ""; "explore{}"; "explore{random:1|trace=1}"; "nonsense" ]

let test_strategy_parsing () =
  let cases =
    [
      ("default", Explore.Default);
      ("random:9", Explore.Random { seed = 9 });
      ("random", Explore.Random { seed = 42 });
      ("pct:7:5", Explore.Pct { seed = 7; depth = 5 });
      ("pct:7", Explore.Pct { seed = 7; depth = 3 });
      ("delay:3:8", Explore.Delay { seed = 3; budget = 8 });
      ("delay:3", Explore.Delay { seed = 3; budget = 16 });
    ]
  in
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) s true (Explore.strategy_of_string s = expect);
      Alcotest.(check string) (s ^ " inverse") (Explore.strategy_to_string expect)
        (Explore.strategy_to_string (Explore.strategy_of_string s)))
    cases;
  Alcotest.(check bool) "reject garbage" true
    (match Explore.strategy_of_string "chaos:1" with
    | _ -> false
    | exception Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* The Default strategy is a pure observer                             *)

let test_default_pure_observer () =
  Explore.unexplored (fun () ->
      let baseline =
        Checker.with_level Checker.Communication (fun () ->
            Mpisim.Mpi.run ~ranks:6 coll_workload)
      in
      let observed = Explore.run ~strategy:Explore.Default ~ranks:6 coll_workload in
      match observed.Explore.outcome with
      | Explore.Crashed e -> raise e
      | Explore.Finished r ->
          (* the chooser keeps send completions eager; the run without one
             elides the unobserved ones, and only those *)
          Alcotest.(check int) "events + elided identical"
            (baseline.Mpisim.Mpi.events + baseline.Mpisim.Mpi.elided)
            (r.Mpisim.Mpi.events + r.Mpisim.Mpi.elided);
          Alcotest.(check bool) "sim_time identical" true
            (baseline.Mpisim.Mpi.sim_time = r.Mpisim.Mpi.sim_time);
          Alcotest.(check bool) "profile identical" true
            (baseline.Mpisim.Mpi.profile = r.Mpisim.Mpi.profile);
          Alcotest.(check bool) "results identical" true
            (baseline.Mpisim.Mpi.results = r.Mpisim.Mpi.results))

(* ------------------------------------------------------------------ *)
(* Randomized strategies genuinely vary the don't-care decisions       *)

let distinct_over_seeds ~ranks ~seeds extract workload =
  let seen = Hashtbl.create 8 in
  for seed = 1 to seeds do
    let o = Explore.run ~strategy:(Explore.Random { seed }) ~ranks workload in
    Hashtbl.replace seen (extract o) ()
  done;
  Hashtbl.length seen

let test_wildcard_order_varies () =
  let distinct = distinct_over_seeds ~ranks:4 ~seeds:20 rank0_of wildcard_workload in
  Alcotest.(check bool)
    (Printf.sprintf "wildcard match order varies (%d distinct)" distinct)
    true (distinct >= 2);
  (* Default keeps the incumbent order, reproducibly *)
  let d1 = rank0_of (Explore.run ~ranks:4 wildcard_workload) in
  let d2 = rank0_of (Explore.run ~ranks:4 wildcard_workload) in
  Alcotest.(check (list int)) "default order stable" d1 d2

let test_completion_order_varies () =
  let distinct = distinct_over_seeds ~ranks:3 ~seeds:20 rank0_of completion_workload in
  Alcotest.(check int) "wait_any observes both orders" 2 distinct;
  let d1 = rank0_of (Explore.run ~ranks:3 completion_workload) in
  let d2 = rank0_of (Explore.run ~ranks:3 completion_workload) in
  Alcotest.(check int) "default pick stable" d1 d2

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let test_replay_round_trip () =
  let o = Explore.run ~strategy:(Explore.Random { seed = 11 }) ~ranks:4 wildcard_workload in
  let order = rank0_of o in
  Alcotest.(check bool) "a non-trivial trace was recorded" true
    (Array.length o.Explore.token.Explore.trace > 0);
  let replayed = Explore.replay o.Explore.token ~ranks:4 wildcard_workload in
  Alcotest.(check (list int)) "replay reproduces the match order" order (rank0_of replayed);
  Alcotest.(check string) "replay reproduces the digest" (digest_of o) (digest_of replayed);
  (* ... and survives the printable encoding *)
  let parsed = Explore.token_of_string (Explore.token_to_string o.Explore.token) in
  let reprinted = Explore.replay parsed ~ranks:4 wildcard_workload in
  Alcotest.(check (list int)) "string round-trip replays too" order (rank0_of reprinted)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let test_shrink_trace () =
  (* failure depends on positions 5 (= 3) and 20 (<> 0) only *)
  let fails tr =
    let get i = if i < Array.length tr then tr.(i) else 0 in
    get 5 = 3 && get 20 > 0
  in
  let noisy = Array.init 64 (fun i -> if i = 5 then 3 else if i = 20 then 2 else 1 + (i mod 3)) in
  assert (fails noisy);
  let minimized = Explore.shrink_trace ~fails noisy in
  Alcotest.(check bool) "still fails" true (fails minimized);
  Alcotest.(check int) "trailing zeros trimmed" 21 (Array.length minimized);
  let nonzero = Array.to_list minimized |> List.filter (fun x -> x <> 0) |> List.length in
  Alcotest.(check int) "only the two needles survive" 2 nonzero;
  (* zeroing is positional: the needles stay at their positions *)
  Alcotest.(check int) "needle at 5" 3 minimized.(5);
  Alcotest.(check bool) "needle at 20" true (minimized.(20) > 0);
  (* a passing-everywhere predicate minimizes to the empty trace *)
  Alcotest.(check int) "all-zeroable trace vanishes" 0
    (Array.length (Explore.shrink_trace ~fails:(fun _ -> true) [| 1; 2; 3 |]))

(* ------------------------------------------------------------------ *)
(* PCT and Delay strategies                                            *)

let test_pct_and_delay () =
  let reference = digest_of (Explore.run ~ranks:6 coll_workload) in
  List.iter
    (fun strategy ->
      let o = Explore.run ~strategy ~ranks:6 coll_workload in
      Alcotest.(check string)
        (Explore.strategy_to_string strategy ^ " agrees on an invariant workload")
        reference (digest_of o))
    [
      Explore.Pct { seed = 3; depth = 10 };
      Explore.Pct { seed = 8; depth = 0 };
      Explore.Delay { seed = 5; budget = 12 };
      Explore.Random { seed = 21 };
    ]

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)

let test_chaos_jitter () =
  let chaos = { Explore.no_chaos with Explore.jitter = 20.0e-6 } in
  let go () = Explore.run ~strategy:(Explore.Random { seed = 3 }) ~chaos ~ranks:2 stream_workload in
  let o1 = go () and o2 = go () in
  (* FIFO survives the jitter: the stream arrives in order *)
  Alcotest.(check (array int)) "per-pair FIFO preserved" (Array.init 10 Fun.id) (rank0_of o1);
  (* chaos draws are decisions: deterministic per seed, recorded in the token *)
  Alcotest.(check bool) "jitter draws recorded" true
    (Array.length o1.Explore.token.Explore.trace > 0);
  Alcotest.(check bool) "identical token across runs" true (o1.Explore.token = o2.Explore.token);
  (match (o1.Explore.outcome, o2.Explore.outcome) with
  | Explore.Finished r1, Explore.Finished r2 ->
      Alcotest.(check bool) "identical sim_time across runs" true
        (r1.Mpisim.Mpi.sim_time = r2.Mpisim.Mpi.sim_time)
  | _ -> Alcotest.fail "jittered runs crashed")

let test_chaos_kill () =
  let chaos = { Explore.no_chaos with Explore.kills = [ (2, 20.0e-6, 80.0e-6) ] } in
  let o = Explore.run ~strategy:(Explore.Random { seed = 17 }) ~chaos ~ranks:4 resilient_rounds in
  match o.Explore.outcome with
  | Explore.Crashed e -> raise e
  | Explore.Finished r ->
      (match r.Mpisim.Mpi.results.(2) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "rank 2 should have been killed");
      (match r.Mpisim.Mpi.results.(0) with
      | Ok (size, completed) ->
          Alcotest.(check int) "survivors" 3 size;
          Alcotest.(check int) "rounds completed" 5 completed
      | Error e -> raise e);
      (* the kill-time draw replays exactly *)
      let replayed = Explore.replay o.Explore.token ~ranks:4 resilient_rounds in
      (match replayed.Explore.outcome with
      | Explore.Finished r' ->
          Alcotest.(check bool) "identical sim_time on replay" true
            (r.Mpisim.Mpi.sim_time = r'.Mpisim.Mpi.sim_time)
      | Explore.Crashed e -> raise e)

(* ------------------------------------------------------------------ *)
(* The explore driver                                                  *)

let test_explore_clean_workload () =
  match Explore.explore ~schedules:15 ~ranks:6 coll_workload with
  | Ok n -> Alcotest.(check int) "all schedules agreed" 15 n
  | Error ce -> Alcotest.failf "unexpected counterexample: %s" ce.Explore.ce_reason

let test_tutil_explore_combinator () =
  (* the Tutil wrapper passes on a schedule-independent workload *)
  Tutil.explore ~schedules:10 ~ranks:4 "coll via tutil" coll_workload;
  (* ... and fails with a replayable token on a schedule-dependent one *)
  let schedule_dependent comm = wildcard_workload comm in
  match Tutil.explore ~schedules:30 ~ranks:4 "wildcard via tutil" schedule_dependent with
  | () -> Alcotest.fail "expected the wildcard workload to be flagged"
  | exception e ->
      let msg = Printexc.to_string e in
      Alcotest.(check bool)
        (Printf.sprintf "failure message carries the replay token: %s" msg)
        true (contains msg "explore{")

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)

let livelock_workload comm =
  (* burns simulated time forever waiting on a condition that never
     comes true — a livelock, not a deadlock (events keep firing) *)
  while Mpisim.Comm.rank comm >= 0 do
    Mpisim.Comm.compute comm 1.0e-3
  done

let test_watchdog_livelock () =
  (* engine level: the deadline turns the livelock into an exception *)
  Alcotest.(check bool) "Limit_exceeded raised" true
    (match Mpisim.Mpi.run ~deadline:0.01 ~ranks:1 livelock_workload with
    | _ -> false
    | exception Simnet.Engine.Limit_exceeded { time; events } ->
        time > 0.01 && events > 0);
  (* harness level: Tutil.run turns it into a diagnostic test failure *)
  match Tutil.run ~deadline:0.01 ~ranks:1 livelock_workload with
  | _ -> Alcotest.fail "expected the watchdog to trip"
  | exception e ->
      let msg = Printexc.to_string e in
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic mentions the watchdog: %s" msg)
        true (contains msg "watchdog")

(* ------------------------------------------------------------------ *)
(* QCheck failure reproducibility                                      *)

let test_qtest_reproducible () =
  let observed_digest = ref "" in
  let prop _n =
    let o = Explore.run ~strategy:(Explore.Random { seed = 23 }) ~ranks:4 wildcard_workload in
    observed_digest := digest_of o;
    false (* always fail: we want the failure report *)
  in
  match Tutil.qtest_result ~count:5 ~seed:123 "always-fails" QCheck2.Gen.small_int prop with
  | Ok () -> Alcotest.fail "property should have failed"
  | Error msg ->
      Alcotest.(check bool) "message names the generator seed" true
        (contains msg "QCHECK_SEED=123");
      (* the message carries the explore token of the last driven schedule *)
      let tok_start =
        match find_sub msg "explore{" with
        | Some i -> i
        | None -> Alcotest.fail "message carries no explore token"
      in
      let tok_end = String.index_from msg tok_start '}' in
      let token = Explore.token_of_string (String.sub msg tok_start (tok_end - tok_start + 1)) in
      (* round-trip: replaying the printed token reproduces the failing run *)
      let replayed = Explore.replay token ~ranks:4 wildcard_workload in
      Alcotest.(check string) "token from the report replays the failing schedule"
        !observed_digest (digest_of replayed)

(* ------------------------------------------------------------------ *)
(* Differential gallery suite                                          *)

let gallery name digest = Tutil.check_gallery ~schedules:20 name digest

let test_gallery_core () =
  gallery "quickstart" Gallery.Quickstart.digest;
  gallery "vector_allgather" Gallery.Vector_allgather.digest;
  gallery "serialization_example" Gallery.Serialization_example.digest;
  gallery "nonblocking_safety" Gallery.Nonblocking_safety.digest

let test_gallery_collectives_rma () =
  gallery "one_sided" Gallery.One_sided.digest;
  gallery "word_count" Gallery.Word_count.digest;
  gallery "reproducible_reduce_example" Gallery.Reproducible_reduce_example.digest;
  gallery "tracing_example" Gallery.Tracing_example.digest

let test_gallery_apps () =
  gallery "sorter_example" Gallery.Sorter_example.digest;
  gallery "sample_sort_example" Gallery.Sample_sort_example.digest;
  gallery "halo_exchange" Gallery.Halo_exchange.digest;
  (* digest itself proves persistent == ephemeral, so each schedule
     re-checks transport equivalence too *)
  gallery "persistent_halo" Gallery.Persistent_halo.digest

let test_gallery_resilience () =
  gallery "bfs_example" Gallery.Bfs_example.digest;
  gallery "fault_tolerance" Gallery.Fault_tolerance.digest;
  gallery "checkpoint_restart" Gallery.Checkpoint_restart.digest;
  gallery "serving" Gallery.Serving.digest

(* the scenario wave: each digest internally proves variant/transport
   bit-identity, oracle equality and kill-recovery — re-checked on every
   explored schedule *)
let test_gallery_scenarios () =
  gallery "graph_analytics" Gallery.Graph_analytics.digest;
  gallery "cg_solver" Gallery.Cg_solver.digest;
  gallery "stream_windows" Gallery.Stream_windows.digest

(* ------------------------------------------------------------------ *)
(* Mutation smoke: the harness finds a real, reintroduced bug          *)

(* A resilient round loop on [Ckpt.run_sharded] whose per-shard state
   has a constant encoded size: with an even shard distribution every
   rank's snapshot is the same size, so the local-size mutation is
   harmless — until a chaos kill forces a recovery, the 8 shards land
   3/3/2 on the three survivors, and locally-derived Daly periods
   diverge. *)
let mutation_workload raw =
  let n_shards = 8 and n_iters = 60 and cells = 4096 in
  let total = ref 0 in
  let (_ : (int * int array) list) =
    Ckpt.run_sharded ~policy:Ckpt.Schedule.Daly ~failure_rate:1e3 ~name:"cells"
      Serde.Codec.(array int) ~n_shards (K.wrap raw)
      ~init:(fun _ -> Array.make cells 1)
      (fun ctx shards ~round ->
        let comm = Ckpt.comm ctx in
        if round < n_iters then begin
          K.compute comm 5.0e-6;
          let (_ : int) = K.allreduce_single comm D.int Mpisim.Op.int_sum 1 in
          (* element 0 follows the round, so the state changes every round *)
          List.iter (fun (_, a) -> a.(0) <- round + 2) shards;
          true
        end
        else begin
          (* the last step sums every shard's cells over the final communicator *)
          let local =
            List.fold_left (fun acc (_, a) -> acc + Array.fold_left ( + ) 0 a) 0 shards
          in
          total := K.allreduce_single comm D.int Mpisim.Op.int_sum local;
          false
        end)
  in
  !total

(* Kills leave the victim's result slot as an error, so judge the run by
   rank 0 (never killed): its global total must be schedule-invariant. *)
let rank0_verdict (o : int Explore.observed) =
  match o.Explore.outcome with
  | Explore.Crashed e -> Explore.Fail ("crashed: " ^ Printexc.to_string e)
  | Explore.Finished r ->
      if r.Mpisim.Mpi.diagnostics <> [] then
        Explore.Fail
          ("checker: "
          ^ String.concat "; " (List.map Checker.to_string r.Mpisim.Mpi.diagnostics))
      else (
        match r.Mpisim.Mpi.results.(0) with
        | Ok v -> Explore.Pass (string_of_int v)
        | Error e -> Explore.Fail ("rank 0: " ^ Printexc.to_string e))

let test_mutation_smoke () =
  let chaos = { Explore.no_chaos with Explore.kills = [ (3, 100.0e-6, 400.0e-6) ] } in
  let explore_once ~dump () =
    Explore.explore ~schedules:200 ~seed:5 ~chaos ~verdict:rank0_verdict ~dump ~ranks:4
      mutation_workload
  in
  (* control: the fixed code is schedule-independent even under kills *)
  (match explore_once ~dump:false () with
  | Ok _ -> ()
  | Error ce ->
      Alcotest.failf "control run found a spurious counterexample: %s" ce.Explore.ce_reason);
  Fun.protect
    ~finally:(fun () -> Ckpt.test_resched_local_size := false)
    (fun () ->
      Ckpt.test_resched_local_size := true;
      match explore_once ~dump:true () with
      | Ok n -> Alcotest.failf "mutation not caught within %d schedules" n
      | Error ce ->
          Alcotest.(check bool)
            (Printf.sprintf "found on schedule %d <= 200" ce.Explore.ce_schedule)
            true
            (ce.Explore.ce_schedule >= 1 && ce.Explore.ce_schedule <= 200);
          Alcotest.(check bool)
            (Printf.sprintf "minimized to %d decisions <= 30" ce.Explore.ce_decisions)
            true (ce.Explore.ce_decisions <= 30);
          (* the minimized token still reproduces the failure *)
          let o = Explore.replay ce.Explore.ce_token ~ranks:4 mutation_workload in
          (match rank0_verdict o with
          | Explore.Fail _ -> ()
          | Explore.Pass _ -> Alcotest.fail "minimized token no longer reproduces the bug");
          (* the Chrome postmortem trace was dumped *)
          Option.iter
            (fun path ->
              Alcotest.(check bool) "chrome trace exists" true (Sys.file_exists path);
              Sys.remove path)
            ce.Explore.ce_chrome)

let suite =
  [
    Alcotest.test_case "token round-trip" `Quick test_token_round_trip;
    Alcotest.test_case "strategy parsing" `Quick test_strategy_parsing;
    Alcotest.test_case "default strategy is a pure observer" `Quick test_default_pure_observer;
    Alcotest.test_case "random varies wildcard match order" `Quick test_wildcard_order_varies;
    Alcotest.test_case "random varies wait_any completion order" `Quick
      test_completion_order_varies;
    Alcotest.test_case "replay round-trip" `Quick test_replay_round_trip;
    Alcotest.test_case "shrink_trace minimizes to the needles" `Quick test_shrink_trace;
    Alcotest.test_case "pct and delay strategies" `Quick test_pct_and_delay;
    Alcotest.test_case "chaos jitter: deterministic, FIFO-preserving" `Quick test_chaos_jitter;
    Alcotest.test_case "chaos kill: replayable recovery interleaving" `Quick test_chaos_kill;
    Alcotest.test_case "explore: clean workload passes" `Quick test_explore_clean_workload;
    Alcotest.test_case "tutil explore combinator" `Quick test_tutil_explore_combinator;
    Alcotest.test_case "watchdog catches a livelock" `Quick test_watchdog_livelock;
    Alcotest.test_case "qcheck failures are reproducible" `Quick test_qtest_reproducible;
    Alcotest.test_case "gallery schedule-independent: core" `Quick test_gallery_core;
    Alcotest.test_case "gallery schedule-independent: collectives+rma" `Quick
      test_gallery_collectives_rma;
    Alcotest.test_case "gallery schedule-independent: apps" `Quick test_gallery_apps;
    Alcotest.test_case "gallery schedule-independent: resilience" `Quick
      test_gallery_resilience;
    Alcotest.test_case "gallery schedule-independent: scenarios" `Quick test_gallery_scenarios;
    Alcotest.test_case "mutation smoke: daly divergence found+shrunk" `Quick
      test_mutation_smoke;
  ]
