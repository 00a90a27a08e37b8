(* The correctness checker (PR 2): every seeded bug class must terminate
   with the expected structured diagnostic — no hangs — and clean programs
   must produce zero diagnostics at the strictest level. *)

open Mpisim
module Ck = Mpisim.Checker
module Algo = Coll_algos.Algo

let with_heavy f = Ck.with_level Ck.Heavy f
let with_comm_level f = Ck.with_level Ck.Communication f

let has_detail pred diags = List.exists (fun (d : Ck.diagnostic) -> pred d) diags

let pp_diags diags = String.concat "\n" (List.map Ck.to_string diags)

let check_found what pred (res : _ Mpi.run_result) =
  if not (has_detail pred res.Mpi.diagnostics) then
    Alcotest.failf "expected a %s diagnostic, got:\n%s" what (pp_diags res.Mpi.diagnostics)

(* ------------- deadlock ------------- *)

(* Both ranks receive before sending: the classic head-to-head deadlock. *)
let recv_first_cycle comm =
  let peer = 1 - Comm.rank comm in
  let buf = [| 0 |] in
  ignore (P2p.recv comm Datatype.int buf ~src:peer ~tag:0);
  P2p.send comm Datatype.int [| Comm.rank comm |] ~dst:peer ~tag:0

let test_deadlock_cycle_reported () =
  let res = with_heavy (fun () -> Mpi.run ~ranks:2 recv_first_cycle) in
  check_found "deadlock-cycle"
    (fun d ->
      match d.Ck.detail with
      | Ck.Deadlock_cycle { cycle; blocked } ->
          d.Ck.location = "quiesce"
          && List.mem 0 cycle && List.mem 1 cycle
          && List.exists (fun (r, _) -> r = 0) blocked
          && List.exists (fun (r, _) -> r = 1) blocked
      | _ -> false)
    res;
  (* the run terminated instead of hanging; the stuck ranks report death *)
  Array.iter
    (fun r ->
      Alcotest.(check bool) "rank did not finish" true
        (match r with Error Mpi.Rank_died -> true | _ -> false))
    res.Mpi.results

let test_deadlock_still_raises_below_heavy () =
  Ck.with_level Ck.Light (fun () ->
      Alcotest.(check bool) "Engine.Deadlock at Light" true
        (match Mpi.run ~ranks:2 recv_first_cycle with
        | (_ : unit Mpi.run_result) -> false
        | exception Simnet.Engine.Deadlock _ -> true))

(* ------------- collective ordering ------------- *)

let test_collective_order_mismatch () =
  let res =
    with_comm_level (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            let buf = [| 1 |] in
            if Comm.rank comm = 0 then begin
              Collectives.barrier comm;
              Collectives.bcast comm Datatype.int buf ~root:0
            end
            else begin
              (* swapped order: bcast where the others call barrier *)
              Collectives.bcast comm Datatype.int buf ~root:0;
              Collectives.barrier comm
            end))
  in
  check_found "collective-mismatch(operation)"
    (fun d ->
      match d.Ck.detail with
      | Ck.Collective_mismatch { index = 0; field = "operation"; expected; got } ->
          expected.Ck.coll_op = "MPI_Barrier" && got.Ck.coll_op = "MPI_Bcast"
      | _ -> false)
    res

let test_collective_root_disagreement () =
  let res =
    with_comm_level (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            let buf = [| 1 |] in
            (* every rank names itself as the root *)
            Collectives.bcast comm Datatype.int buf ~root:(Comm.rank comm)))
  in
  check_found "collective-mismatch(root)"
    (fun d ->
      match d.Ck.detail with
      | Ck.Collective_mismatch { field = "root"; expected; got } ->
          expected.Ck.coll_root = 0 && got.Ck.coll_root = 1
      | _ -> false)
    res

let test_collective_count_disagreement () =
  let res =
    with_comm_level (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            let n = if Comm.rank comm = 0 then 3 else 4 in
            Collectives.allreduce comm Datatype.int Op.int_sum ~sendbuf:(Array.make n 1)
              ~recvbuf:(Array.make n 0) ~count:n))
  in
  check_found "collective-mismatch(count)"
    (fun d ->
      match d.Ck.detail with Ck.Collective_mismatch { field = "count"; _ } -> true | _ -> false)
    res

(* ------------- p2p matching errors ------------- *)

let test_truncation_diagnosed () =
  let res =
    Ck.with_level Ck.Light (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int [| 1; 2; 3; 4 |] ~dst:1 ~tag:0
            else
              match P2p.recv comm Datatype.int (Array.make 2 0) ~src:0 ~tag:0 with
              | (_ : Request.status) -> Alcotest.fail "truncation not raised"
              | exception Errors.Truncated _ -> ()))
  in
  check_found "truncation"
    (fun d ->
      match d.Ck.detail with
      | Ck.Truncation { sent = 4; capacity = 2 } ->
          d.Ck.rank = 1 && d.Ck.location = "p2p-match" && d.Ck.op = "MPI_Recv"
      | _ -> false)
    res

let test_datatype_mismatch_diagnosed () =
  let res =
    Ck.with_level Ck.Light (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int [| 7 |] ~dst:1 ~tag:0
            else
              match P2p.recv comm Datatype.float (Array.make 1 0.0) ~src:0 ~tag:0 with
              | (_ : Request.status) -> Alcotest.fail "type mismatch not raised"
              | exception Errors.Type_mismatch _ -> ()))
  in
  check_found "datatype-mismatch"
    (fun d ->
      match d.Ck.detail with
      | Ck.Datatype_mismatch { sent; expected } -> sent = "int" && expected = "double"
      | _ -> false)
    res

(* ------------- resource leaks at finalize ------------- *)

let test_request_leak () =
  let res =
    with_heavy (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then
              (* fire and forget: the isend handle is dropped unobserved *)
              ignore (P2p.isend comm Datatype.int [| 9 |] ~dst:1 ~tag:0)
            else ignore (P2p.recv comm Datatype.int [| 0 |] ~src:0 ~tag:0)))
  in
  check_found "request-leak"
    (fun d ->
      match d.Ck.detail with
      | Ck.Request_leak -> d.Ck.rank = 0 && d.Ck.op = "MPI_Isend" && d.Ck.location = "finalize"
      | _ -> false)
    res;
  (* an unwaited nonblocking collective is reported under its MPI name *)
  List.iter
    (fun (op, start) ->
      let res = with_heavy (fun () -> Mpi.run ~ranks:2 (fun comm -> ignore (start comm))) in
      check_found (op ^ " leak")
        (fun d ->
          match d.Ck.detail with
          | Ck.Request_leak -> d.Ck.op = op && d.Ck.location = "finalize"
          | _ -> false)
        res)
    [
      ("MPI_Ibarrier", Collectives.ibarrier);
      ("MPI_Ibcast", fun comm -> Collectives.ibcast comm Datatype.int [| 1 |] ~root:0);
      ( "MPI_Iallreduce",
        fun comm ->
          Collectives.iallreduce comm Datatype.int Op.int_sum ~sendbuf:[| 1 |] ~recvbuf:[| 0 |]
            ~count:1 );
      ( "MPI_Ialltoallv",
        fun comm ->
          Collectives.ialltoallv comm Datatype.int ~sendbuf:[| 1; 2 |] ~scounts:[| 1; 1 |]
            ~sdispls:[| 0; 1 |] ~recvbuf:[| 0; 0 |] ~rcounts:[| 1; 1 |] ~rdispls:[| 0; 1 |] );
    ]

(* ------------- the run tee ------------- *)

(* [Mpi.with_run_collector] reports every run's diagnostics, including a
   run that raises out of [Mpi.run]: here a [Light] run that records a
   truncation and then deadlocks. *)
let test_run_tee_diagnostics () =
  let leak comm =
    if Comm.rank comm = 0 then ignore (P2p.isend comm Datatype.int [| 9 |] ~dst:1 ~tag:0)
    else ignore (P2p.recv comm Datatype.int [| 0 |] ~src:0 ~tag:0)
  in
  let truncate_then_hang comm =
    if Comm.rank comm = 0 then begin
      P2p.send comm Datatype.int [| 1; 2; 3 |] ~dst:1 ~tag:0;
      ignore (P2p.recv comm Datatype.int [| 0 |] ~src:1 ~tag:1)
    end
    else ignore (P2p.recv comm Datatype.int [| 0 |] ~src:0 ~tag:0)
  in
  let (), runs =
    Mpi.with_run_collector (fun () ->
        ignore (with_heavy (fun () -> Mpi.run ~ranks:2 leak));
        ignore (Mpi.run ~ranks:2 Collectives.barrier);
        Ck.with_level Ck.Light (fun () ->
            match Mpi.run ~ranks:2 truncate_then_hang with
            | (_ : unit Mpi.run_result) -> Alcotest.fail "expected a deadlock"
            | exception Simnet.Engine.Deadlock _ -> ()))
  in
  Alcotest.(check (list (list string)))
    "diagnostics of each run"
    [
      [ "[finalize] rank 0, comm 0, MPI_Isend: request leak: completion never waited for or tested" ];
      [];
      [ "[p2p-match] rank 1, comm 0, MPI_Recv: truncation: 3 elements sent into capacity 1" ];
    ]
    (List.map (fun (s : Mpi.run_summary) -> List.map Ck.to_string s.rs_diagnostics) runs);
  Alcotest.(check int) "the raising run's profile" 1
    (Profiling.calls_of "MPI_Send" (List.nth runs 2).Mpi.rs_profile)

(* A call rejected by argument validation hands out no request, so the
   finalize scan must not report one as leaked. *)
let test_rejected_call_is_not_a_leak () =
  let rejected what f =
    let res =
      with_heavy (fun () ->
          Mpi.run ~ranks:2 (fun comm ->
              match f comm ~dst:(1 - Comm.rank comm) with
              | (_ : Request.t) -> false
              | exception Errors.Usage_error _ -> true))
    in
    Array.iter
      (fun r -> Alcotest.(check bool) (what ^ ": rejected") true (r = Ok true))
      res.Mpi.results;
    Alcotest.(check (list string))
      (what ^ ": no diagnostics") []
      (List.map Ck.to_string res.Mpi.diagnostics)
  in
  rejected "isend, negative tag" (fun comm ~dst ->
      P2p.isend comm Datatype.int [| 1 |] ~dst ~tag:(-1));
  rejected "isend, window past the buffer" (fun comm ~dst ->
      P2p.isend ~pos:3 comm Datatype.int [| 1 |] ~dst ~tag:0);
  rejected "issend, window past the buffer" (fun comm ~dst ->
      P2p.issend ~pos:3 comm Datatype.int [| 1 |] ~dst ~tag:0)

let test_waited_request_is_clean () =
  let results =
    Tutil.run_checked ~level:Ck.Heavy ~ranks:2 (fun comm ->
        if Comm.rank comm = 0 then Request.wait (P2p.isend comm Datatype.int [| 9 |] ~dst:1 ~tag:0)
        else P2p.recv comm Datatype.int [| 0 |] ~src:0 ~tag:0)
  in
  Alcotest.(check int) "both ranks done" 2 (Array.length results)

let test_unmatched_send () =
  let res =
    with_heavy (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then
              (* rank 1 never posts the matching receive *)
              P2p.send comm Datatype.int [| 1; 2; 3 |] ~dst:1 ~tag:42))
  in
  check_found "unmatched-send"
    (fun d ->
      match d.Ck.detail with
      | Ck.Unmatched_send { dst = 1; tag = 42; count = 3 } ->
          d.Ck.rank = 0 && d.Ck.location = "finalize"
      | _ -> false)
    res

(* Buddy-checkpoint style traffic abandoned because a THIRD rank failed:
   rank 0's isend to rank 1 is never matched — rank 1 aborted the
   exchange when it observed rank 2's death.  Both endpoints are alive,
   but the communicator is damaged, so the finalize leak scan must not
   flag the in-flight message (regression for the ULFM exclusions). *)
let test_damaged_comm_traffic_not_flagged () =
  let res =
    with_heavy (fun () ->
        Mpi.run ~ranks:3 ~fail_at:[ (2, 10.0e-6) ] (fun comm ->
            match Comm.rank comm with
            | 0 -> ignore (P2p.isend comm Datatype.int [| 1 |] ~dst:1 ~tag:7)
            | 1 -> (
                try ignore (P2p.recv comm Datatype.int [| 0 |] ~src:2 ~tag:0)
                with Errors.Process_failed _ -> ())
            | _ ->
                (* blocks forever; killed at 10us *)
                ignore (P2p.recv comm Datatype.int [| 0 |] ~src:0 ~tag:99)))
  in
  (match res.Mpi.diagnostics with
  | [] -> ()
  | diags -> Alcotest.failf "damaged-comm traffic flagged:\n%s" (pp_diags diags));
  (* The exclusion is scoped to damaged communicators: the same abandoned
     isend with every member alive is still a leak and an unmatched
     send. *)
  let healthy =
    with_heavy (fun () ->
        Mpi.run ~ranks:3 (fun comm ->
            if Comm.rank comm = 0 then
              ignore (P2p.isend comm Datatype.int [| 1 |] ~dst:1 ~tag:7)))
  in
  check_found "request-leak on healthy comm"
    (fun d -> match d.Ck.detail with Ck.Request_leak -> d.Ck.rank = 0 | _ -> false)
    healthy;
  check_found "unmatched-send on healthy comm"
    (fun d ->
      match d.Ck.detail with Ck.Unmatched_send { dst = 1; tag = 7; _ } -> true | _ -> false)
    healthy

(* The damaged-comm exemption is temporal: only traffic already in
   flight when the member died may have been abandoned because of the
   failure.  A leak between two live ranks initiated long AFTER an
   unrelated third member's death is still a genuine leak. *)
let test_leak_after_unrelated_failure_still_flagged () =
  let res =
    with_heavy (fun () ->
        Mpi.run ~ranks:3 ~fail_at:[ (2, 1.0e-6) ] (fun comm ->
            match Comm.rank comm with
            | 0 ->
                (* compute well past rank 2's death, then leak a send *)
                Comm.compute comm 1.0e-3;
                ignore (P2p.isend comm Datatype.int [| 1 |] ~dst:1 ~tag:8)
            | 1 ->
                (* stays alive past the leak; never posts the receive *)
                Comm.compute comm 2.0e-3
            | _ ->
                (* blocks forever; killed at 1us *)
                ignore (P2p.recv comm Datatype.int [| 0 |] ~src:0 ~tag:99)))
  in
  check_found "request-leak after unrelated failure"
    (fun d -> match d.Ck.detail with Ck.Request_leak -> d.Ck.rank = 0 | _ -> false)
    res;
  check_found "unmatched-send after unrelated failure"
    (fun d ->
      match d.Ck.detail with Ck.Unmatched_send { dst = 1; tag = 8; _ } -> true | _ -> false)
    res

let test_window_leak_and_free () =
  let leaked =
    with_heavy (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            let win = Win.create comm Datatype.int (Array.make 2 0) in
            Win.put win ~target:(1 - Comm.rank comm) ~target_pos:0 [| 5 |];
            Win.fence win))
  in
  check_found "window-leak"
    (fun d -> match d.Ck.detail with Ck.Window_leak -> d.Ck.location = "finalize" | _ -> false)
    leaked;
  (* same program with Win.free runs clean *)
  ignore
    (Tutil.run_checked ~level:Ck.Heavy ~ranks:2 (fun comm ->
         let win = Win.create comm Datatype.int (Array.make 2 0) in
         Win.put win ~target:(1 - Comm.rank comm) ~target_pos:0 [| 5 |];
         Win.fence win;
         Win.free win))

(* A persistent handle left unfreed at finalize is a leak — the standing
   registration pins a matching slot forever — and the diagnostic carries
   the round count so a never-started handle is distinguishable from an
   abandoned hot channel. *)
let test_persistent_leak_and_free () =
  let leaked =
    with_heavy (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            let peer = 1 - Comm.rank comm in
            let h = P2p.send_init comm Datatype.int [| 1 |] ~dst:peer ~tag:3 in
            let r = P2p.recv_init comm Datatype.int [| 0 |] ~src:peer ~tag:3 in
            Persist.startall [ h; r ];
            ignore (Persist.wait h);
            ignore (Persist.wait r);
            Persist.free r
            (* h is never freed *)))
  in
  check_found "persistent-leak"
    (fun d ->
      match d.Ck.detail with
      | Ck.Persistent_leak { starts } ->
          d.Ck.op = "MPI_Send_init" && d.Ck.location = "finalize" && starts = 1
      | _ -> false)
    leaked;
  (* the same program with the send handle freed runs clean *)
  ignore
    (Tutil.run_checked ~level:Ck.Heavy ~ranks:2 (fun comm ->
         let peer = 1 - Comm.rank comm in
         let h = P2p.send_init comm Datatype.int [| 1 |] ~dst:peer ~tag:3 in
         let r = P2p.recv_init comm Datatype.int [| 0 |] ~src:peer ~tag:3 in
         Persist.startall [ h; r ];
         ignore (Persist.wait h);
         ignore (Persist.wait r);
         Persist.free r;
         Persist.free h))

(* ------------- clean programs ------------- *)

let test_busy_clean_program () =
  let results =
    Tutil.run_checked ~ranks:4 (fun comm ->
        let r = Comm.rank comm and p = Comm.size comm in
        let buf = if r = 0 then [| 11; 22; 33 |] else Array.make 3 0 in
        Collectives.bcast comm Datatype.int buf ~root:0;
        let sum = Array.make 1 0 in
        Collectives.allreduce comm Datatype.int Op.int_sum ~sendbuf:[| r |] ~recvbuf:sum ~count:1;
        let recv = Array.make 1 0 in
        ignore
          (P2p.sendrecv comm Datatype.int ~send:[| r |] ~dst:((r + 1) mod p) ~stag:1 ~recv
             ~src:((r - 1 + p) mod p) ~rtag:1 ());
        let req = P2p.irecv comm Datatype.int (Array.make 1 0) ~src:((r + 1) mod p) ~tag:2 in
        P2p.send comm Datatype.int [| r * 10 |] ~dst:((r - 1 + p) mod p) ~tag:2;
        ignore (Request.wait req);
        Collectives.barrier comm;
        (buf.(2), sum.(0), recv.(0)))
  in
  Array.iteri
    (fun r (b, s, v) ->
      Alcotest.(check int) "bcast" 33 b;
      Alcotest.(check int) "allreduce" 6 s;
      Alcotest.(check int) "ring" ((r + 3) mod 4) v)
    results

let test_nonblocking_collectives_clean () =
  ignore
    (Tutil.run_checked ~ranks:4 (fun comm ->
         let sum = Array.make 1 0 in
         let req =
           Collectives.iallreduce comm Datatype.int Op.int_sum ~sendbuf:[| 1 |] ~recvbuf:sum
             ~count:1
         in
         let breq = Collectives.ibarrier comm in
         ignore (Request.wait req);
         ignore (Request.wait breq);
         Alcotest.(check int) "iallreduce" 4 sum.(0)))

(* ------------- coll_algos degenerate coverage (PR 1 gap) ------------- *)

let test_degenerate_collectives_clean () =
  List.iter
    (fun p ->
      List.iter
        (fun count ->
          ignore
            (Tutil.run_checked ~ranks:p (fun comm ->
                 let data = Array.init count (fun i -> i + 1) in
                 let buf = if Comm.rank comm = 0 then Array.copy data else Array.make count 0 in
                 Collectives.bcast comm Datatype.int buf ~root:0;
                 let red = Array.make count 0 in
                 Collectives.allreduce comm Datatype.int Op.int_sum ~sendbuf:buf ~recvbuf:red
                   ~count;
                 let gathered = Array.make (p * count) 0 in
                 Collectives.allgather comm Datatype.int ~sendbuf:buf ~recvbuf:gathered ~count;
                 let a2a = Array.make (p * count) 0 in
                 Collectives.alltoall comm Datatype.int ~sendbuf:(Array.make (p * count) 7)
                   ~recvbuf:a2a ~count;
                 Alcotest.(check Tutil.int_array) "bcast payload" data buf)))
        [ 0; 1; 5 ])
    [ 1; 4 ]

let test_pinned_algorithms_clean () =
  let pinned_run ~coll ~algo body =
    ignore
      (Tutil.run_checked ~ranks:4 (fun comm ->
           Collectives.pin_algorithm comm ~coll ~algo;
           body comm))
  in
  List.iter
    (fun algo ->
      pinned_run ~coll:"bcast" ~algo:(Algo.bcast_name algo) (fun comm ->
          Collectives.bcast comm Datatype.int (Array.make 8 (Comm.rank comm)) ~root:0))
    Algo.all_bcast;
  List.iter
    (fun algo ->
      pinned_run ~coll:"allreduce" ~algo:(Algo.allreduce_name algo) (fun comm ->
          let out = Array.make 4 0 in
          Collectives.allreduce comm Datatype.int Op.int_sum ~sendbuf:(Array.make 4 1)
            ~recvbuf:out ~count:4))
    Algo.all_allreduce;
  List.iter
    (fun algo ->
      pinned_run ~coll:"allgather" ~algo:(Algo.allgather_name algo) (fun comm ->
          let out = Array.make 8 0 in
          Collectives.allgather comm Datatype.int ~sendbuf:(Array.make 2 (Comm.rank comm))
            ~recvbuf:out ~count:2))
    Algo.all_allgather;
  List.iter
    (fun algo ->
      pinned_run ~coll:"alltoall" ~algo:(Algo.alltoall_name algo) (fun comm ->
          let out = Array.make 4 0 in
          Collectives.alltoall comm Datatype.int ~sendbuf:(Array.make 4 (Comm.rank comm))
            ~recvbuf:out ~count:1))
    Algo.all_alltoall

(* ------------- zero overhead at level Off ------------- *)

let parameterized_program comm =
  let r = Comm.rank comm and p = Comm.size comm in
  let rc = Array.init p (fun i -> i + 1) in
  let rd = Array.make p 0 in
  for i = 1 to p - 1 do
    rd.(i) <- rd.(i - 1) + rc.(i - 1)
  done;
  let out = Array.make (rd.(p - 1) + rc.(p - 1)) 0 in
  Collectives.allgatherv comm Datatype.int ~sendbuf:(Array.make (r + 1) r) ~scount:(r + 1)
    ~recvbuf:out ~rcounts:rc ~rdispls:rd;
  let sum = Array.make 1 0 in
  Collectives.allreduce comm Datatype.int Op.int_sum ~sendbuf:[| r |] ~recvbuf:sum ~count:1

let test_checker_is_pure_observer () =
  (* the checker must add no MPI calls, no messages and no simulated time
     at ANY level: profiling equality between Off and Communication is the
     PMPI-style proof that level [none] stays zero-overhead *)
  let at level = Ck.with_level level (fun () -> Mpi.run ~ranks:8 parameterized_program) in
  let off = at Ck.Off and full = at Ck.Communication in
  Alcotest.(check (list (pair string int)))
    "identical call profile" off.Mpi.profile.Profiling.calls full.Mpi.profile.Profiling.calls;
  Alcotest.(check int) "identical messages" off.Mpi.profile.Profiling.messages
    full.Mpi.profile.Profiling.messages;
  Alcotest.(check (float 0.0)) "identical simulated time" off.Mpi.sim_time full.Mpi.sim_time;
  Alcotest.(check int) "identical event count" off.Mpi.events full.Mpi.events;
  Alcotest.(check (list (pair string int)))
    "identical algorithm annotations" off.Mpi.profile.Profiling.algo_calls
    full.Mpi.profile.Profiling.algo_calls

let test_off_disables_all_recording () =
  let res =
    Ck.with_level Ck.Off (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            (* a leak and an unmatched send that Heavy would flag *)
            if Comm.rank comm = 0 then begin
              ignore (P2p.isend comm Datatype.int [| 1 |] ~dst:1 ~tag:0);
              P2p.send comm Datatype.int [| 2 |] ~dst:1 ~tag:1
            end))
  in
  Alcotest.(check int) "no diagnostics at Off" 0 (List.length res.Mpi.diagnostics)

(* MPISIM_CHECK parsing: every documented spelling, the unset/empty
   default, and a misspelling that must fail instead of running at Light. *)
let test_level_of_env () =
  List.iter
    (fun (v, l) -> Alcotest.(check bool) (Printf.sprintf "%S" v) true (Ck.level_of_env (Some v) = l))
    [
      ("off", Ck.Off); ("none", Ck.Off); ("light", Ck.Light); ("Heavy", Ck.Heavy);
      (" communication ", Ck.Communication); ("comm", Ck.Communication); ("", Ck.Light);
    ];
  Alcotest.(check bool) "unset" true (Ck.level_of_env None = Ck.Light);
  match Ck.level_of_env (Some "comunication") with
  | _ -> Alcotest.fail "a misspelled level must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("message names the variable: " ^ msg) true
        (String.starts_with ~prefix:"MPISIM_CHECK:" msg)

let suite =
  [
    Alcotest.test_case "deadlock: cycle reported, no hang" `Quick test_deadlock_cycle_reported;
    Alcotest.test_case "deadlock: raises below Heavy" `Quick test_deadlock_still_raises_below_heavy;
    Alcotest.test_case "collective order mismatch" `Quick test_collective_order_mismatch;
    Alcotest.test_case "collective root disagreement" `Quick test_collective_root_disagreement;
    Alcotest.test_case "collective count disagreement" `Quick test_collective_count_disagreement;
    Alcotest.test_case "truncation diagnosed" `Quick test_truncation_diagnosed;
    Alcotest.test_case "datatype mismatch diagnosed" `Quick test_datatype_mismatch_diagnosed;
    Alcotest.test_case "request leak" `Quick test_request_leak;
    Alcotest.test_case "waited request is clean" `Quick test_waited_request_is_clean;
    Alcotest.test_case "rejected call is not a leak" `Quick test_rejected_call_is_not_a_leak;
    Alcotest.test_case "run tee reports every run's diagnostics" `Quick test_run_tee_diagnostics;
    Alcotest.test_case "unmatched send" `Quick test_unmatched_send;
    Alcotest.test_case "damaged-comm traffic not flagged" `Quick
      test_damaged_comm_traffic_not_flagged;
    Alcotest.test_case "leak after unrelated failure still flagged" `Quick
      test_leak_after_unrelated_failure_still_flagged;
    Alcotest.test_case "window leak / freed is clean" `Quick test_window_leak_and_free;
    Alcotest.test_case "persistent leak / freed is clean" `Quick test_persistent_leak_and_free;
    Alcotest.test_case "busy clean program: zero diagnostics" `Quick test_busy_clean_program;
    Alcotest.test_case "nonblocking collectives clean" `Quick test_nonblocking_collectives_clean;
    Alcotest.test_case "degenerate collectives clean" `Quick test_degenerate_collectives_clean;
    Alcotest.test_case "pinned algorithms clean" `Quick test_pinned_algorithms_clean;
    Alcotest.test_case "checker is a pure observer" `Quick test_checker_is_pure_observer;
    Alcotest.test_case "level Off records nothing" `Quick test_off_disables_all_recording;
    Alcotest.test_case "MPISIM_CHECK parsing" `Quick test_level_of_env;
  ]
