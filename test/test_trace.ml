(* Tracing & wait-state analysis (PR 3).

   Three pillars:
   - the recorder is a PURE OBSERVER: every gallery example produces the
     same profile, event count and final simulated time with tracing off
     and on (mirrors the checker's profile-equality regression);
   - the analysis is exact on constructed scenarios: a serial pipeline's
     critical path covers the whole run, waits decompose per rank, and
     late-sender / late-receiver / wait-at-collective states are
     classified with the right rank, peer and call site;
   - the Chrome exporter round-trips through lib/serde and carries one
     track per rank plus one flow pair per matched message. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec
module Mpi = Mpisim.Mpi

let exact = Alcotest.float 0.0
let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Pure-observer equality over the gallery                             *)
(* ------------------------------------------------------------------ *)

let summaries enabled run =
  let (), runs =
    Trace.Recorder.with_default enabled (fun () -> Mpi.with_run_collector run)
  in
  runs

let check_observer_equal name run =
  let off = summaries false run and on = summaries true run in
  Alcotest.(check int) (name ^ ": same run count") (List.length off) (List.length on);
  List.iteri
    (fun i (a : Mpi.run_summary) ->
      let b = List.nth on i in
      let lbl what = Printf.sprintf "%s run %d: %s" name i what in
      Alcotest.check exact (lbl "sim time") a.Mpi.rs_sim_time b.Mpi.rs_sim_time;
      Alcotest.(check int) (lbl "engine events") a.rs_events b.rs_events;
      Alcotest.(check (list (pair string int)))
        (lbl "call profile") a.rs_profile.Mpisim.Profiling.calls b.rs_profile.calls;
      Alcotest.(check (list (pair string int)))
        (lbl "algorithm annotations") a.rs_profile.algo_calls b.rs_profile.algo_calls;
      Alcotest.(check int) (lbl "messages") a.rs_profile.messages b.rs_profile.messages;
      Alcotest.(check int) (lbl "bytes") a.rs_profile.bytes b.rs_profile.bytes)
    off

let observer name run =
  Alcotest.test_case ("pure observer: " ^ name) `Quick (fun () ->
      check_observer_equal name run)

(* ------------------------------------------------------------------ *)
(* Constructed scenarios                                               *)
(* ------------------------------------------------------------------ *)

let traced ~ranks f =
  let res = Trace.Recorder.with_default false (fun () -> Mpi.run ~trace:true ~ranks f) in
  ignore (Mpi.results_exn res);
  Option.get res.Mpi.trace

let stage = 100e-6

(* Serial pipeline: rank r waits for r-1, computes, passes the token on.
   The run is one long dependency chain, so the critical path must cover
   it end to end and the waiting time must grow with the rank. *)
let pipeline_data () =
  traced ~ranks:4 (fun raw ->
      let c = K.wrap raw in
      let r = K.rank c and p = K.size c in
      if r > 0 then ignore (K.recv ~count:1 c D.int ~src:(r - 1));
      K.compute c stage;
      if r < p - 1 then K.send c D.int ~send_buf:(V.make 1 r) ~dst:(r + 1))

let test_pipeline_critical_path () =
  let data = pipeline_data () in
  let report = Trace.Analysis.analyze data in
  Alcotest.check close "critical path covers the whole run" data.Trace.Event.total
    (Trace.Analysis.critical_length report);
  (* forward order, gap-free coverage of [0, total] *)
  let t = ref 0.0 in
  List.iter
    (fun (s : Trace.Analysis.step) ->
      Alcotest.check close "steps are contiguous" !t s.st_t0;
      Alcotest.(check bool) "steps go forward" true (s.st_t1 >= s.st_t0);
      t := s.st_t1)
    report.Trace.Analysis.critical_path;
  Alcotest.check close "path ends at the final time" data.total !t;
  (* the chain hops through every rank via message transfers *)
  let transfers =
    List.filter
      (fun (s : Trace.Analysis.step) -> s.st_kind = Trace.Analysis.Transfer)
      report.critical_path
  in
  Alcotest.(check int) "one transfer per pipeline edge" 3 (List.length transfers)

let test_pipeline_rank_decomposition () =
  let data = pipeline_data () in
  let report = Trace.Analysis.analyze data in
  Alcotest.(check int) "stats for every rank" 4 (Array.length report.Trace.Analysis.per_rank);
  Array.iter
    (fun (s : Trace.Analysis.rank_stats) ->
      Alcotest.check close
        (Printf.sprintf "rank %d: waiting + working = span" s.rank)
        s.span (s.waiting +. s.working);
      Alcotest.check exact
        (Printf.sprintf "rank %d: span = recorded finish" s.rank)
        data.Trace.Event.rank_end.(s.rank) s.span)
    report.per_rank;
  Alcotest.check exact "head of the pipeline never waits" 0.0
    report.per_rank.(0).waiting;
  Alcotest.(check bool) "tail waits for all upstream stages" true
    (report.per_rank.(3).waiting > 3.0 *. stage);
  Alcotest.(check bool) "waiting grows along the pipeline" true
    (report.per_rank.(1).waiting < report.per_rank.(2).waiting
    && report.per_rank.(2).waiting < report.per_rank.(3).waiting)

let test_late_sender () =
  (* rank 1 posts its receive immediately; rank 0 computes first: the
     match is classified as a late sender charged to the receiver. *)
  let data =
    traced ~ranks:2 (fun raw ->
        let c = K.wrap raw in
        if K.rank c = 0 then begin
          K.compute c (2.0 *. stage);
          K.send c D.int ~send_buf:(V.make 1 7) ~dst:1
        end
        else ignore (K.recv ~count:1 c D.int ~src:0))
  in
  let report = Trace.Analysis.analyze data in
  let ls =
    List.filter
      (fun ws -> ws.Trace.Analysis.ws_class = Trace.Analysis.Late_sender)
      report.Trace.Analysis.wait_states
  in
  Alcotest.(check int) "exactly one late-sender state" 1 (List.length ls);
  let ws = List.hd ls in
  Alcotest.(check int) "charged to the receiver" 1 ws.Trace.Analysis.ws_rank;
  Alcotest.(check int) "caused by the sender" 0 ws.ws_peer;
  Alcotest.(check string) "attributed to the receive" "MPI_Recv" ws.ws_op;
  Alcotest.(check bool) "wait is at least the compute delay" true
    (ws.ws_amount >= 2.0 *. stage);
  Alcotest.check close "rank stats agree" ws.ws_amount
    report.per_rank.(1).late_sender

let test_late_receiver () =
  (* rank 0 sends immediately; rank 1 computes before receiving: the
     payload sits in the mailbox and the exposure is charged to the
     sender side. *)
  let data =
    traced ~ranks:2 (fun raw ->
        let c = K.wrap raw in
        if K.rank c = 0 then K.send c D.int ~send_buf:(V.make 1 7) ~dst:1
        else begin
          K.compute c (2.0 *. stage);
          ignore (K.recv ~count:1 c D.int ~src:0)
        end)
  in
  let report = Trace.Analysis.analyze data in
  let lr =
    List.filter
      (fun ws -> ws.Trace.Analysis.ws_class = Trace.Analysis.Late_receiver)
      report.Trace.Analysis.wait_states
  in
  Alcotest.(check int) "exactly one late-receiver state" 1 (List.length lr);
  let ws = List.hd lr in
  Alcotest.(check int) "charged to the sender" 0 ws.Trace.Analysis.ws_rank;
  Alcotest.(check int) "caused by the receiver" 1 ws.ws_peer;
  (* exposure = matched - arrived: the compute delay minus the (small)
     network latency the message spent in flight *)
  Alcotest.(check bool) "exposure is most of the compute delay" true
    (ws.ws_amount > stage && ws.ws_amount <= 2.0 *. stage);
  Alcotest.(check (list Alcotest.reject)) "no late-sender states" []
    (List.filter
       (fun ws -> ws.Trace.Analysis.ws_class = Trace.Analysis.Late_sender)
       report.wait_states)

let test_wait_at_collective () =
  (* staggered arrival at a barrier: rank r computes r * stage first, so
     every rank but the last waits inside the collective. *)
  let ranks = 4 in
  let data =
    traced ~ranks (fun raw ->
        let c = K.wrap raw in
        K.compute c (float_of_int (K.rank c) *. stage);
        K.barrier c)
  in
  let report = Trace.Analysis.analyze data in
  let cw =
    List.filter
      (fun ws -> ws.Trace.Analysis.ws_class = Trace.Analysis.Wait_at_collective)
      report.Trace.Analysis.wait_states
  in
  Alcotest.(check bool) "collective waits were classified" true (cw <> []);
  List.iter
    (fun ws ->
      Alcotest.(check string) "attributed to the barrier" "MPI_Barrier"
        ws.Trace.Analysis.ws_op;
      Alcotest.(check int) "collective-wide: no single peer" (-1) ws.ws_peer;
      Alcotest.(check bool) "the last arrival does not wait" true (ws.ws_rank < ranks - 1))
    cw;
  let amount r =
    List.fold_left
      (fun acc ws -> if ws.Trace.Analysis.ws_rank = r then acc +. ws.ws_amount else acc)
      0.0 cw
  in
  Alcotest.(check bool) "earliest arrival waits longest" true (amount 0 > amount 2)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)
(* ------------------------------------------------------------------ *)

let test_chrome_export () =
  let data = pipeline_data () in
  let json = Trace.Chrome.to_json data in
  let text = Serde.Json.to_string json in
  Alcotest.(check bool) "round-trips through lib/serde" true
    (Serde.Json.equal (Serde.Json.parse text) json);
  let events =
    match Serde.Json.member "traceEvents" json with
    | Some (Serde.Json.List l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  let field ev name =
    match ev with Serde.Json.Obj _ -> Serde.Json.member name ev | _ -> None
  in
  let phase ev = match field ev "ph" with Some (Serde.Json.Str s) -> s | _ -> "?" in
  let tid ev =
    match field ev "tid" with Some (Serde.Json.Num n) -> int_of_float n | _ -> -1
  in
  (* one complete-event track per rank *)
  for r = 0 to data.Trace.Event.ranks - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d has a complete-event track" r)
      true
      (List.exists (fun ev -> phase ev = "X" && tid ev = r) events)
  done;
  (* one flow pair per matched message *)
  let matched =
    List.length (List.filter Trace.Event.matched data.Trace.Event.messages)
  in
  let count ph = List.length (List.filter (fun ev -> phase ev = ph) events) in
  Alcotest.(check int) "one flow start per matched message" matched (count "s");
  Alcotest.(check int) "flow starts and finishes pair up" matched (count "f");
  (* timestamps are microseconds *)
  let num ev name =
    match field ev name with Some (Serde.Json.Num n) -> n | _ -> 0.0
  in
  let max_end =
    List.fold_left (fun acc ev -> Float.max acc (num ev "ts" +. num ev "dur")) 0.0 events
  in
  let last_recorded =
    List.fold_left
      (fun acc (s : Trace.Event.span) -> Float.max acc s.sp_t1)
      (List.fold_left
         (fun acc (w : Trace.Event.wait) -> Float.max acc w.w_t1)
         0.0 data.waits)
      data.spans
  in
  Alcotest.(check bool) "timestamps scaled to microseconds" true
    (Float.abs (max_end -. (last_recorded *. 1e6)) < 1e-3)

(* ------------------------------------------------------------------ *)
(* Enablement plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Span inventory                                                      *)
(* ------------------------------------------------------------------ *)

(* The multiset of (category, op) spans a traced run records: a dropped
   or renamed span site changes it.  Collective spans must also carry
   gap-free sequence numbers 0, 1, ... per (rank, communicator). *)
let inventory (data : Trace.Event.data) =
  let counts = Hashtbl.create 16 and seqs = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.Event.span) ->
      let key = s.sp_cat ^ "/" ^ s.sp_op in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key));
      if s.sp_cat = "coll" then
        Hashtbl.replace seqs (s.sp_rank, s.sp_comm)
          (s.sp_seq :: Option.value ~default:[] (Hashtbl.find_opt seqs (s.sp_rank, s.sp_comm))))
    data.spans;
  Hashtbl.iter
    (fun (rank, comm) l ->
      Alcotest.(check (list int))
        (Printf.sprintf "rank %d comm %d: collective sequence" rank comm)
        (List.init (List.length l) Fun.id) (List.sort compare l))
    seqs;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [] |> List.sort compare

let check_inventory name run expected =
  let res = Trace.Recorder.with_default true run in
  ignore (Mpi.results_exn res);
  Alcotest.(check (list (pair string int)))
    (name ^ ": spans") expected
    (inventory (Option.get res.Mpi.trace))

let test_span_inventory () =
  check_inventory "tracing_example" Gallery.Tracing_example.compute
    [ ("p2p/MPI_Recv", 3); ("p2p/MPI_Send", 3); ("user/stage-work", 4) ];
  check_inventory "persistent_halo"
    (fun () -> Gallery.Persistent_halo.compute ~ranks:4 ~cells_per_rank:8 ~steps:3 ())
    [
      ("p2p/MPI_Pready", 12);
      ("p2p/MPI_Precv_init", 3);
      ("p2p/MPI_Psend_init", 3);
      ("p2p/MPI_Recv_init", 6);
      ("p2p/MPI_Send_init", 6);
      ("p2p/MPI_Start", 42);
      ("p2p/MPI_Wait", 42);
    ];
  check_inventory "persistent_halo (ephemeral)"
    (fun () ->
      Gallery.Persistent_halo.compute ~persistent:false ~ranks:4 ~cells_per_rank:8 ~steps:3 ())
    [ ("p2p/MPI_Irecv", 18); ("p2p/MPI_Isend", 18); ("p2p/MPI_Recv", 3); ("p2p/MPI_Send", 3) ];
  check_inventory "one_sided"
    (Gallery.One_sided.compute ~ranks:4 ~samples_per_rank:20 ~buckets_per_rank:2)
    [
      ("coll/MPI_Allgather", 4);
      ("coll/MPI_Alltoall", 32);
      ("coll/MPI_Alltoallv", 32);
      ("coll/MPI_Barrier", 8);
      ("rma/MPI_Accumulate", 80);
      ("rma/MPI_Get", 4);
      ("rma/MPI_Win_create", 4);
      ("rma/MPI_Win_fence", 8);
      ("rma/MPI_Win_free", 4);
    ]

let test_enablement () =
  let prog raw = ignore (K.rank (K.wrap raw)) in
  let trace_of res = res.Mpi.trace in
  Trace.Recorder.with_default false (fun () ->
      Alcotest.(check bool) "default off: no trace" true
        (trace_of (Mpi.run ~ranks:2 prog) = None);
      Alcotest.(check bool) "explicit on overrides default" true
        (trace_of (Mpi.run ~trace:true ~ranks:2 prog) <> None));
  Trace.Recorder.with_default true (fun () ->
      Alcotest.(check bool) "default on: trace present" true
        (trace_of (Mpi.run ~ranks:2 prog) <> None);
      Alcotest.(check bool) "explicit off overrides default" true
        (trace_of (Mpi.run ~trace:false ~ranks:2 prog) = None));
  Alcotest.(check bool) "inert recorder is inactive" false
    (Trace.Recorder.active Trace.Recorder.inert);
  Alcotest.(check bool) "created recorder is active" true
    (Trace.Recorder.active (Trace.Recorder.create ~ranks:2))

(* MPISIM_TRACE parsing: on and off spellings, the unset/empty default,
   and a value that must fail instead of silently meaning off. *)
let test_default_of_env () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check bool) (Printf.sprintf "%S" v) b (Trace.Recorder.default_of_env (Some v)))
    [
      ("1", true); ("true", true); ("ON", true); (" yes ", true);
      ("0", false); ("false", false); ("off", false); ("no", false); ("", false);
    ];
  Alcotest.(check bool) "unset" false (Trace.Recorder.default_of_env None);
  match Trace.Recorder.default_of_env (Some "2") with
  | _ -> Alcotest.fail "an unknown value must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("message names the variable: " ^ msg) true
        (String.starts_with ~prefix:"MPISIM_TRACE:" msg)

let suite =
  [
    Alcotest.test_case "pipeline: critical path" `Quick test_pipeline_critical_path;
    Alcotest.test_case "pipeline: per-rank decomposition" `Quick
      test_pipeline_rank_decomposition;
    Alcotest.test_case "late sender classified" `Quick test_late_sender;
    Alcotest.test_case "late receiver classified" `Quick test_late_receiver;
    Alcotest.test_case "wait-at-collective classified" `Quick test_wait_at_collective;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "enablement plumbing" `Quick test_enablement;
    Alcotest.test_case "MPISIM_TRACE parsing" `Quick test_default_of_env;
    Alcotest.test_case "span inventory of the gallery" `Quick test_span_inventory;
    observer "quickstart" Gallery.Quickstart.run;
    observer "vector_allgather" Gallery.Vector_allgather.run;
    observer "sample_sort_example" Gallery.Sample_sort_example.run;
    observer "bfs_example" Gallery.Bfs_example.run;
    observer "nonblocking_safety" Gallery.Nonblocking_safety.run;
    observer "serialization_example" Gallery.Serialization_example.run;
    observer "fault_tolerance" Gallery.Fault_tolerance.run;
    observer "reproducible_reduce_example" Gallery.Reproducible_reduce_example.run;
    observer "sorter_example" Gallery.Sorter_example.run;
    observer "halo_exchange" Gallery.Halo_exchange.run;
    observer "word_count" Gallery.Word_count.run;
    observer "one_sided" Gallery.One_sided.run;
    observer "checkpoint_restart" Gallery.Checkpoint_restart.run;
  ]
