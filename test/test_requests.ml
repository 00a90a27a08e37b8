(* Send requests complete at their injection time.  Without exploration
   that completion takes a reserved engine slot and costs an event only
   when a fiber blocks on it; under a chooser it stays an eager event.
   Every program here runs both ways — once plainly, once under a chooser
   that always answers 0, which keeps the incumbent schedule — and the
   two runs must observe the same things at the same simulated times:
   [test], [is_complete], [wait_any], request pools, restarted
   persistent sends and a rank killed while its send is still unread. *)

open Mpisim
module P = P2p
module D = Datatype
module Req = Request

(* Chooser-mode hooks that reproduce the incumbent schedule. *)
let incumbent = { Exhook.choose = (fun ~kind:_ ~ids:_ -> 0); arrival_adjust = None }

(* [both ?fail_at ~ranks prog] runs [prog comm note] plainly and eagerly;
   [note] logs an observation with the rank and simulated time.  It checks
   the two runs against each other and returns the plain run and its log. *)
let both ?(fail_at = []) ~ranks prog =
  let go hooks =
    let log = ref [] in
    let r =
      Explore.unexplored (fun () ->
          Mpi.run ?hooks ~fail_at ~deadline:Tutil.default_deadline ~ranks (fun comm ->
              let note s = log := Printf.sprintf "r%d %s @%h" (Comm.rank comm) s (Comm.now comm) :: !log in
              prog comm note))
    in
    (r, List.rev !log)
  in
  let plain, plain_log = go None in
  let eager, eager_log = go (Some incumbent) in
  Alcotest.(check (list string)) "observations" eager_log plain_log;
  Alcotest.(check int64) "sim time" (Int64.bits_of_float eager.Mpi.sim_time)
    (Int64.bits_of_float plain.Mpi.sim_time);
  Alcotest.(check int) "eager run elides nothing" 0 eager.Mpi.elided;
  Alcotest.(check int) "events + elided" eager.Mpi.events (plain.Mpi.events + plain.Mpi.elided);
  let outcome = function Ok v -> Ok v | Error e -> Error (Printexc.to_string e) in
  Alcotest.(check bool) "per-rank outcomes" true
    (Array.map outcome eager.Mpi.results = Array.map outcome plain.Mpi.results);
  (plain, plain_log)

(* The injection time of a one-int send from rank 0 to rank 1 at t=0,
   after one zero-length compute: rank 0 waits on it at once. *)
let injection_time () =
  let r =
    Explore.unexplored (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            Comm.compute comm 0.0;
            if Comm.rank comm = 0 then begin
              Req.wait (P.isend comm D.int [| 7 |] ~dst:1 ~tag:0) |> ignore;
              Comm.now comm
            end
            else begin
              ignore (P.recv comm D.int [| 0 |] ~src:0 ~tag:0);
              0.0
            end))
  in
  (Mpi.results_exn r).(0)

(* At the injection time itself, a poll whose event was scheduled before
   the send sees it pending, and one scheduled after sees it complete. *)
let test_polls_at_injection () =
  let t_i = injection_time () in
  let shared = ref None in
  let _, log =
    both ~ranks:4 (fun comm note ->
        match Comm.rank comm with
        | 0 ->
            Comm.compute comm 0.0;
            let req = P.isend comm D.int [| 7 |] ~dst:1 ~tag:0 in
            shared := Some req;
            note (Printf.sprintf "test %b" (Req.test req <> None));
            Comm.compute comm t_i;
            note (Printf.sprintf "late is_complete %b" (Req.is_complete req));
            ignore (Req.wait req);
            note "waited"
        | 1 -> ignore (P.recv comm D.int [| 0 |] ~src:0 ~tag:0)
        | 2 ->
            (* scheduled before rank 0 sends: fires first at t_i *)
            Comm.compute comm t_i;
            note (Printf.sprintf "early is_complete %b" (Req.is_complete (Option.get !shared)))
        | _ ->
            Comm.compute comm (t_i /. 2.0);
            note (Printf.sprintf "midway test %b" (Req.test (Option.get !shared) <> None)))
  in
  let at s = Printf.sprintf "%s @%h" s t_i in
  List.iter
    (fun want ->
      Alcotest.(check bool) want true (List.mem want log))
    [ at "r2 early is_complete false"; at "r0 late is_complete true"; at "r0 waited" ]

(* wait_any parks on two unread sends and wakes at the first; later, over
   two sends whose slots both passed, it returns the first without an
   event. *)
let test_wait_any () =
  let plain, log =
    both ~ranks:3 (fun comm note ->
        match Comm.rank comm with
        | 0 ->
            let small = P.isend comm D.int [| 1 |] ~dst:1 ~tag:0 in
            let big = P.isend comm D.int (Array.make 1000 2) ~dst:2 ~tag:0 in
            let i, st = Req.wait_any [ big; small ] in
            note (Printf.sprintf "wait_any %d count %d" i st.Req.count);
            let i, st = Req.wait_any [ big; small ] in
            note (Printf.sprintf "wait_any again %d count %d" i st.Req.count);
            ignore (Req.wait big);
            note "big done";
            let a = P.isend comm D.int [| 3 |] ~dst:1 ~tag:1 in
            let b = P.isend comm D.int [| 4 |] ~dst:2 ~tag:1 in
            Comm.compute comm 1e-3;
            let i, _ = Req.wait_any [ b; a ] in
            note (Printf.sprintf "both passed: wait_any %d" i);
            ignore (Req.wait_all [ a; b ])
        | r ->
            ignore (P.recv comm D.int (Array.make 1000 0) ~src:0 ~tag:0);
            ignore (P.recv comm D.int [| 0 |] ~src:0 ~tag:1);
            ignore r)
  in
  Alcotest.(check bool) "some completions elided" true (plain.Mpi.elided > 0);
  Alcotest.(check bool) "first wait_any sees the small send" true
    (List.exists (String.starts_with ~prefix:"r0 wait_any 1 count 1 ") log)

(* A bounded request pool reaps with is_complete and blocks with wait. *)
let test_request_pool () =
  ignore
    (both ~ranks:2 (fun comm note ->
         if Comm.rank comm = 0 then begin
           let pool = Kamping.Request_pool.create_bounded ~slots:2 () in
           for i = 1 to 6 do
             Kamping.Request_pool.add pool (P.isend comm D.int (Array.make (50 * i) i) ~dst:1 ~tag:i);
             note (Printf.sprintf "add %d in flight %d" i (Kamping.Request_pool.in_flight pool));
             if i mod 3 = 0 then Comm.compute comm 1e-6
           done;
           note (Printf.sprintf "test_all %b" (Kamping.Request_pool.test_all pool));
           Kamping.Request_pool.wait_all pool;
           note "drained"
         end
         else
           for i = 1 to 6 do
             ignore (P.recv comm D.int (Array.make (50 * i) 0) ~src:0 ~tag:i)
           done))

(* A persistent send restarted after its round's slot passed rearms
   cleanly: test and wait read the passed slot, and the next round parks
   on its own slot. *)
let test_send_init_restart () =
  let plain, _ =
    both ~ranks:2 (fun comm note ->
        let buf = [| 0 |] in
        if Comm.rank comm = 0 then begin
          let h = P.send_init comm D.int buf ~dst:1 ~tag:3 in
          for round = 1 to 4 do
            buf.(0) <- round;
            Persist.start h;
            if round mod 2 = 0 then Comm.compute comm 1e-5;
            (match Persist.test h with
            | Some st -> note (Printf.sprintf "round %d test count %d" round st.Req.count)
            | None ->
                let st = Persist.wait h in
                note (Printf.sprintf "round %d waited count %d" round st.Req.count))
          done;
          Persist.free h
        end
        else begin
          let h = P.recv_init comm D.int buf ~src:0 ~tag:3 in
          for _ = 1 to 4 do
            Persist.start h;
            ignore (Persist.wait h);
            note (Printf.sprintf "got %d" buf.(0))
          done;
          Persist.free h
        end)
  in
  Alcotest.(check bool) "passed rounds elided" true (plain.Mpi.elided >= 2)

(* A rank killed after its send's slot passed but before anything read
   the request: the survivors receive the message, then see the failure,
   with the same results and errors as with an eager completion event. *)
let test_kill_before_first_read () =
  let t_i = injection_time () in
  let plain, log =
    both ~ranks:3 ~fail_at:[ (0, 2.0 *. t_i) ] (fun comm note ->
        match Comm.rank comm with
        | 0 ->
            Comm.compute comm 0.0;
            let req = P.isend comm D.int [| 7 |] ~dst:1 ~tag:0 in
            Comm.compute comm (10.0 *. t_i);
            ignore (Req.wait req);
            note "unreachable"
        | 1 ->
            let b = [| 0 |] in
            ignore (P.recv comm D.int b ~src:0 ~tag:0);
            note (Printf.sprintf "got %d" b.(0));
            (match P.recv comm D.int b ~src:0 ~tag:1 with
            | _ -> note "second receive succeeded"
            | exception Errors.Process_failed { world_rank } ->
                note (Printf.sprintf "peer %d failed" world_rank))
        | _ -> Comm.compute comm (20.0 *. t_i))
  in
  Alcotest.(check bool) "rank 0 died" true
    (match plain.Mpi.results.(0) with Error _ -> true | Ok () -> false);
  Alcotest.(check bool) "survivor received, then saw the failure" true
    (List.exists (String.starts_with ~prefix:"r1 got 7 ") log
    && List.exists (String.starts_with ~prefix:"r1 peer 0 failed ") log)

let suite =
  [
    Alcotest.test_case "test/is_complete at the injection time" `Quick test_polls_at_injection;
    Alcotest.test_case "wait_any over due sends" `Quick test_wait_any;
    Alcotest.test_case "bounded request pool" `Quick test_request_pool;
    Alcotest.test_case "send_init restarted after its slot passed" `Quick test_send_init_restart;
    Alcotest.test_case "rank killed before its send is read" `Quick test_kill_before_first_read;
  ]
