(* Shared helpers for the test suites. *)

(* ------------------------------------------------------------------ *)
(* Watchdog (PR 5): every harness run carries a simulated-time         *)
(* deadline, so a livelocked workload (e.g. a poll loop that never     *)
(* observes its condition) fails with a diagnostic instead of          *)
(* spinning the discrete-event engine forever.                         *)
(* ------------------------------------------------------------------ *)

(* Simulated seconds — tests complete in micro- to milliseconds, so any
   workload still running after a simulated minute is stuck. *)
let default_deadline = 60.0

let watchdog name f =
  try f () with
  | Simnet.Engine.Limit_exceeded { time; events } ->
      Alcotest.failf
        "%s: watchdog tripped — deadline exceeded at simulated t=%gs after %d events \
         (livelock? raise ?deadline if the workload is legitimately long)"
        name time events

let run ?(deadline = default_deadline) ~ranks f =
  watchdog "run" (fun () -> Mpisim.Mpi.results_exn (Mpisim.Mpi.run ~deadline ~ranks f))

let run_full ?net ?fail_at ?(deadline = default_deadline) ~ranks f =
  watchdog "run_full" (fun () -> Mpisim.Mpi.run ?net ?fail_at ~deadline ~ranks f)

let int_array = Alcotest.(array int)

let check_all_ranks name expected results =
  Array.iteri (fun r actual -> Alcotest.(check bool) (Printf.sprintf "%s@rank%d" name r) true (expected r actual)) results

(* ------------------------------------------------------------------ *)
(* QCheck with reproducible seeds (PR 5).                              *)
(* ------------------------------------------------------------------ *)

(* A fixed generator seed (overridable via QCHECK_SEED) instead of
   qcheck's self-initializing default: a failing property always prints
   how to re-run with the exact same generated inputs, and — when
   schedule exploration is active — the explore replay token of the
   last schedule it drove. *)
let qtest_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 433494437)
  | None -> 433494437

(* The testable core of [qtest], exposed so the failure message itself
   can be unit-tested. *)
let qtest_result ?(count = 200) ?(seed = qtest_seed) name gen prop =
  let test = QCheck2.Test.make ~count ~name gen prop in
  let rand = Random.State.make [| seed |] in
  match QCheck2.Test.check_exn ~rand test with
  | () -> Ok ()
  | exception e ->
      let token =
        match Explore.last_token () with
        | Some t -> Printf.sprintf "\nexplore replay token: %s" (Explore.token_to_string t)
        | None -> ""
      in
      Error
        (Printf.sprintf "%s: generator seed %d (rerun with QCHECK_SEED=%d)%s\n%s" name seed
           seed token (Printexc.to_string e))

let qtest ?count ?seed name gen prop =
  Alcotest.test_case name `Quick (fun () ->
      match qtest_result ?count ?seed name gen prop with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)

(* ------------------------------------------------------------------ *)
(* Checker-backed runs (PR 2).                                         *)
(* ------------------------------------------------------------------ *)

let diag_fail name diags =
  Alcotest.failf "%s: %d checker diagnostic(s):\n%s" name (List.length diags)
    (String.concat "\n" (List.map Mpisim.Checker.to_string diags))

(* [run_checked ~ranks f] runs the SPMD program with the correctness
   checker raised to [level] (default: everything, including the
   collective-ordering checks) and fails the test if any diagnostic was
   recorded.  Returns the per-rank results like [run]. *)
let run_checked ?(level = Mpisim.Checker.Communication) ?net ?fabric ?fail_at
    ?(deadline = default_deadline) ~ranks f =
  Mpisim.Checker.with_level level (fun () ->
      let res =
        watchdog "run_checked" (fun () ->
            Mpisim.Mpi.run ?net ?fabric ?fail_at ~deadline ~ranks f)
      in
      (match res.Mpisim.Mpi.diagnostics with [] -> () | diags -> diag_fail "run_checked" diags);
      Mpisim.Mpi.results_exn res)

(* [check_clean name f] runs a thunk that internally calls [Mpi.run] any
   number of times (e.g. a whole example program) with the checker raised
   to [level], collecting diagnostics across all the worlds it creates,
   and fails the test if any were recorded. *)
let check_clean ?(level = Mpisim.Checker.Communication) name f =
  let result, runs =
    Mpisim.Checker.with_level level (fun () ->
        Mpisim.Mpi.with_run_collector (fun () -> watchdog name f))
  in
  (match List.concat_map (fun (s : Mpisim.Mpi.run_summary) -> s.rs_diagnostics) runs with
  | [] -> ()
  | ds -> diag_fail name ds);
  result

(* ------------------------------------------------------------------ *)
(* Schedule exploration (PR 5).                                        *)
(* ------------------------------------------------------------------ *)

(* [explore name ~ranks f] asserts that the observable result of the
   SPMD program [f] is independent of the schedule: it runs once under
   the incumbent schedule and then under [schedules] random ones, all
   under the checker, and fails — printing the minimized replay token —
   if any schedule crashes, trips the checker, or produces a different
   result digest. *)
let explore ?schedules ?seed ?chaos ?verdict ~ranks name f =
  match Explore.explore ?schedules ?seed ?chaos ?verdict ~dump:false ~ranks f with
  | Ok (_n : int) -> ()
  | Error ce ->
      Alcotest.failf
        "%s: schedule-dependent behaviour on schedule %d (%d decisions after shrinking)\n\
         reason: %s\nreplay token: %s" name ce.Explore.ce_schedule ce.Explore.ce_decisions
        ce.Explore.ce_reason
        (Explore.token_to_string ce.Explore.ce_token)

(* [check_gallery name digest] asserts a gallery example's semantic
   digest is schedule-independent: equal across ≥ [schedules] random
   schedules and checker-clean on each. *)
let check_gallery ?(schedules = 20) ?(seed = 97) name digest =
  let reference = Explore.unexplored (fun () -> check_clean name digest) in
  for i = 1 to schedules do
    let strategy = Explore.Random { seed = (seed * 1009) + i } in
    let got, _token =
      Explore.with_strategy ~strategy (fun () ->
          check_clean (Printf.sprintf "%s[schedule %d]" name i) digest)
    in
    if got <> reference then
      Alcotest.failf "%s: digest diverged on random schedule %d (seed %d):\n  ref: %s\n  got: %s"
        name i ((seed * 1009) + i) reference got
  done
