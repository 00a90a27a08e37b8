(* The MPI-4 surface (PR 8): persistent and partitioned requests,
   sessions, and 64-bit counts.

   Pillars:
   - persistent handles validate once at [*_init] and reuse one pooled
     envelope across rounds — restarting a handle with refilled buffers
     delivers the fresh contents every round;
   - partitioned transfers complete per partition, in any release order;
   - sessions derive communicators from named process sets without
     touching world state — same name shares, different names isolate;
   - counts beyond 2^31 round-trip through the sparse representation,
     the split/join encoding, and the kamping serialization helpers,
     with explicit overflow/truncation diagnostics instead of silent
     wraparound;
   - tracing persistent ops stays a pure observer, and late-sender time
     attributes to the Start/Wait of the round, never the init. *)

module C = Mpisim.Collectives
module Ck = Mpisim.Checker
module Comm = Mpisim.Comm
module D = Mpisim.Datatype
module Errors = Mpisim.Errors
module K = Kamping.Comm
module Mpi = Mpisim.Mpi
module P = Mpisim.P2p
module Persist = Mpisim.Persist
module Pool = Kamping.Request_pool
module Req = Mpisim.Request
module V = Ds.Vec

let ranks = 4
let rounds = 5

(* ------------------------------------------------------------------ *)
(* Persistent point-to-point                                           *)
(* ------------------------------------------------------------------ *)

(* A ring where every rank reuses ONE send and ONE recv handle across
   [rounds] rounds, refilling the pinned envelope each time.  The
   received value must track the refill — proof the restart reuses the
   buffer identity, not a stale snapshot. *)
let test_ring_restart () =
  let per_rank =
    Tutil.run_checked ~ranks (fun comm ->
        let r = Comm.rank comm and p = Comm.size comm in
        let right = (r + 1) mod p and left = (r + p - 1) mod p in
        let sbuf = [| 0 |] and rbuf = [| 0 |] in
        let sh = P.send_init comm D.int sbuf ~dst:right ~tag:3 in
        let rh = P.recv_init comm D.int rbuf ~src:left ~tag:3 in
        let got = Array.make rounds 0 in
        for round = 0 to rounds - 1 do
          sbuf.(0) <- (100 * round) + r;
          Persist.startall [ sh; rh ];
          ignore (Persist.wait sh);
          let st = Persist.wait rh in
          Alcotest.(check int) "status source" left st.Req.source;
          Alcotest.(check int) "status count" 1 st.Req.count;
          got.(round) <- rbuf.(0)
        done;
        Alcotest.(check int) "send rounds counted" rounds (Persist.starts sh);
        Alcotest.(check bool) "inactive between rounds" false (Persist.is_active sh);
        (* waiting on an inactive handle is the MPI-4 no-op *)
        Alcotest.(check bool) "inactive wait = empty status" true
          (Persist.wait sh = Req.empty_status);
        Persist.free sh;
        Persist.free rh;
        Alcotest.(check bool) "freed is terminal" true (Persist.is_freed sh);
        got)
  in
  Array.iteri
    (fun r got ->
      let left = (r + ranks - 1) mod ranks in
      Array.iteri
        (fun round v ->
          Alcotest.(check int)
            (Printf.sprintf "rank %d round %d" r round)
            ((100 * round) + left)
            v)
        got)
    per_rank

(* Lifecycle misuse is rejected exactly as the state machine promises. *)
let test_lifecycle_errors () =
  ignore
    (Tutil.run_checked ~ranks:2 (fun comm ->
         let r = Comm.rank comm in
         if r = 0 then begin
           let h = P.send_init comm D.int [| 7 |] ~dst:1 ~tag:0 in
           Persist.start h;
           Alcotest.(check bool) "double start rejected" true
             (match Persist.start h with
             | () -> false
             | exception Errors.Usage_error _ -> true);
           Alcotest.(check bool) "free while active rejected" true
             (match Persist.free h with
             | () -> false
             | exception Errors.Usage_error _ -> true);
           ignore (Persist.wait h);
           Persist.free h;
           Alcotest.(check bool) "start after free rejected" true
             (match Persist.start h with
             | () -> false
             | exception Errors.Usage_error _ -> true)
         end
         else ignore (P.recv comm D.int [| 0 |] ~src:0 ~tag:0)))

(* The kamping named-parameter surface over a request pool: register the
   handles once, then start_all/wait_all per round; free_all retires the
   whole set. *)
let test_kamping_pool_surface () =
  let per_rank =
    Tutil.run_checked ~ranks (fun comm ->
        let kc = K.wrap comm in
        let r = K.rank kc and p = K.size kc in
        let right = (r + 1) mod p and left = (r + p - 1) mod p in
        let send_buf = V.make 2 0 in
        let pool = Pool.create () in
        Pool.request_init pool (K.send_init kc D.int ~send_buf ~dst:right ~tag:1);
        let rh, recv_buf = K.recv_init ~count:2 kc D.int ~src:left ~tag:1 in
        Pool.request_init pool rh;
        Alcotest.(check int) "pool tracks both handles" 2 (Pool.persistent_count pool);
        let sums = Array.make rounds 0 in
        for round = 0 to rounds - 1 do
          V.set send_buf 0 round;
          V.set send_buf 1 r;
          Pool.start_all pool;
          Pool.wait_all pool;
          Alcotest.(check bool) "idle pool tests complete" true (Pool.test_all pool);
          sums.(round) <- V.get recv_buf 0 + V.get recv_buf 1
        done;
        Pool.free_all pool;
        Alcotest.(check int) "free_all empties the pool" 0 (Pool.persistent_count pool);
        sums)
  in
  Array.iteri
    (fun r sums ->
      let left = (r + ranks - 1) mod ranks in
      Array.iteri
        (fun round s ->
          Alcotest.(check int) (Printf.sprintf "rank %d round %d sum" r round) (round + left) s)
        sums)
    per_rank

(* A freed handle may not be re-registered. *)
let test_pool_rejects_freed () =
  ignore
    (Tutil.run_checked ~ranks:1 (fun comm ->
         let h = C.bcast_init comm D.int [| 0 |] ~root:0 in
         Persist.free h;
         let pool = Pool.create () in
         Alcotest.(check bool) "request_init on freed handle rejected" true
           (match Pool.request_init pool h with
           | () -> false
           | exception Errors.Usage_error _ -> true)))

(* ------------------------------------------------------------------ *)
(* Persistent collectives                                              *)
(* ------------------------------------------------------------------ *)

let test_bcast_init_rounds () =
  let per_rank =
    Tutil.run_checked ~ranks (fun comm ->
        let r = Comm.rank comm in
        let buf = [| 0 |] in
        let h = C.bcast_init comm D.int buf ~root:0 in
        let got = Array.make rounds 0 in
        for round = 0 to rounds - 1 do
          buf.(0) <- (if r = 0 then 1000 + round else -1);
          Persist.start h;
          ignore (Persist.wait h);
          got.(round) <- buf.(0)
        done;
        Persist.free h;
        got)
  in
  Array.iteri
    (fun r got ->
      Array.iteri
        (fun round v ->
          Alcotest.(check int) (Printf.sprintf "rank %d round %d bcast" r round) (1000 + round) v)
        got)
    per_rank

(* ------------------------------------------------------------------ *)
(* Partitioned communication                                           *)
(* ------------------------------------------------------------------ *)

(* Partitions released in REVERSE order still land, [parrived] reports
   per-partition completion, and the same handles carry several rounds. *)
let test_partitioned_reverse_release () =
  let parts = 4 and per = 3 in
  let per_rank =
    Tutil.run_checked ~ranks:2 (fun comm ->
        let r = Comm.rank comm in
        let n = parts * per in
        if r = 0 then begin
          let buf = Array.make n 0 in
          let h = P.psend_init comm D.int buf ~partitions:parts ~count:per ~dst:1 ~tag:2 in
          for round = 0 to 1 do
            Array.iteri (fun i _ -> buf.(i) <- (round * 1000) + i) buf;
            Persist.start h;
            for i = parts - 1 downto 0 do
              Persist.pready h i
            done;
            ignore (Persist.wait h)
          done;
          Persist.free h;
          [||]
        end
        else begin
          let buf = Array.make n (-1) in
          let h = P.precv_init comm D.int buf ~partitions:parts ~count:per ~src:0 ~tag:2 in
          let out = Array.make (2 * n) 0 in
          for round = 0 to 1 do
            Persist.start h;
            ignore (Persist.wait h);
            for i = 0 to parts - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "partition %d arrived" i)
                true (Persist.parrived h i)
            done;
            Array.blit buf 0 out (round * n) n
          done;
          Persist.free h;
          out
        end)
  in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "recv elt %d" i) ((i / 12 * 1000) + (i mod 12)) v)
    per_rank.(1)

let test_partitioned_usage_errors () =
  ignore
    (Tutil.run_checked ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then begin
           (* a wildcard source is not allowed on partitioned receives *)
           Alcotest.(check bool) "precv_init rejects any_source" true
             (match
                P.precv_init comm D.int (Array.make 4 0) ~partitions:2 ~count:2
                  ~src:P.any_source ~tag:0
              with
             | (_ : Persist.t) -> false
             | exception Errors.Usage_error _ -> true);
           (* pready on a plain persistent send is not partitioned *)
           let h = P.send_init comm D.int [| 0 |] ~dst:1 ~tag:9 in
           Persist.start h;
           Alcotest.(check bool) "pready outside partitioned op rejected" true
             (match Persist.pready h 0 with
             | () -> false
             | exception Errors.Usage_error _ -> true);
           ignore (Persist.wait h);
           Persist.free h
         end
         else ignore (P.recv comm D.int [| 0 |] ~src:0 ~tag:9)))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let test_session_isolation () =
  ignore
    (Tutil.run_checked ~ranks (fun comm ->
        let kc = K.wrap comm in
        let serving = K.session ~name:"serving" kc in
        let ckpt = K.session ~name:"ckpt" kc in
        let serving2 = K.session ~name:"serving" kc in
        (* same session name memoizes the communicator; different names
           get distinct shared state over the same process set *)
        let a = Mpisim.Session.comm_of_pset serving "mpi://world" in
        let a' = Mpisim.Session.comm_of_pset serving2 "mpi://world" in
        let b = Mpisim.Session.comm_of_pset ckpt "mpi://world" in
        Alcotest.(check int) "same name, same comm" (Comm.id a) (Comm.id a');
        Alcotest.(check bool) "different names, distinct comms" true (Comm.id a <> Comm.id b);
        Alcotest.(check int) "derived size is the set size" ranks (Comm.size a);
        Alcotest.(check int) "derived rank is the caller's" (K.rank kc) (Comm.rank a);
        (* mpi://self is the singleton set *)
        let self = Mpisim.Session.comm_of_pset serving "mpi://self" in
        Alcotest.(check int) "self size" 1 (Comm.size self);
        Alcotest.(check int) "self rank" 0 (Comm.rank self);
        (* registration is idempotent for identical membership, an error
           for conflicting membership *)
        Mpisim.Session.register_pset serving "app://even" [| 0; 2 |];
        Mpisim.Session.register_pset serving "app://even" [| 0; 2 |];
        Alcotest.(check bool) "conflicting re-registration rejected" true
          (match Mpisim.Session.register_pset serving "app://even" [| 1; 3 |] with
          | () -> false
          | exception Errors.Usage_error _ -> true);
        (* the sessions' comms actually carry traffic independently: the
           same collective, in opposite creation order per library, still
           matches within each session *)
        let ka = K.wrap a and kb = K.wrap b in
        let sa = K.allreduce ka D.int Mpisim.Op.int_sum ~send_buf:(V.make 1 1) in
        let sb = K.allreduce kb D.int Mpisim.Op.int_sum ~send_buf:(V.make 1 2) in
        Alcotest.(check int) "serving-session allreduce" ranks (V.get sa 0);
        Alcotest.(check int) "ckpt-session allreduce" (2 * ranks) (V.get sb 0);
        (* members-only subset comm over a registered pset *)
        if K.rank kc mod 2 = 0 then begin
          let even = K.comm_of_pset serving "app://even" in
          Alcotest.(check int) "pset comm size" 2 (K.size even);
          let s = K.allreduce even D.int Mpisim.Op.int_sum ~send_buf:(V.make 1 1) in
          Alcotest.(check int) "pset allreduce" 2 (V.get s 0)
        end
        else
          Alcotest.(check bool) "non-member derivation rejected" true
            (match Mpisim.Session.comm_of_pset serving "app://even" with
            | (_ : Comm.t) -> false
            | exception Errors.Usage_error _ -> true)))

(* ------------------------------------------------------------------ *)
(* 64-bit counts                                                       *)
(* ------------------------------------------------------------------ *)

let huge_count_gen =
  (* counts well past 2^31, the range real MPI_Count exists for *)
  QCheck2.Gen.(map2 (fun hi lo -> (hi lsl 31) lor lo) (int_range 0 0xFFFF) (int_bound D.max_small_count))

let test_split_join_roundtrip =
  Tutil.qtest "split_count/join_count round-trip" huge_count_gen (fun c ->
      let hi, lo = D.split_count c in
      hi >= 0 && hi <= D.max_small_count && lo >= 0 && lo <= D.max_small_count
      && D.join_count ~hi ~lo = c)

let test_serialization_count_roundtrip =
  Tutil.qtest "kamping encode_count/decode_count round-trip" huge_count_gen (fun c ->
      Kamping.Serialization.decode_count (Kamping.Serialization.encode_count c) = c)

(* Sparse transfers carry counts > 2^31 end-to-end: the status reports
   the 64-bit count exactly, with no buffer allocated anywhere. *)
let test_sparse_huge_count () =
  let big = (3 * (D.max_small_count + 1)) + 17 in
  ignore
    (Tutil.run_checked ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then P.send_sparse comm D.int ~count:big ~dst:1 ~tag:4
         else begin
           let st = P.recv_sparse comm D.int ~capacity:(big + 1) ~src:0 ~tag:4 in
           Alcotest.(check bool) "64-bit count preserved" true (st.Req.count = big)
         end))

(* A 2^32-element message into a 2^31-capacity sparse receive is the
   canonical silent-wraparound bug; it must be a loud truncation. *)
let test_sparse_truncation_diagnostic () =
  let big = 2 * (D.max_small_count + 1) in
  let res =
    Ck.with_level Ck.Communication (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P.send_sparse comm D.int ~count:big ~dst:1 ~tag:4
            else ignore (P.recv_sparse comm D.int ~capacity:D.max_small_count ~src:0 ~tag:4)))
  in
  Alcotest.(check bool) "rank 1 sees Truncated with exact 64-bit counts" true
    (match res.Mpi.results.(1) with
    | Error (Errors.Truncated { sent; capacity }) ->
        sent = big && capacity = D.max_small_count
    | _ -> false)

let test_count_overflow_diagnostics () =
  (* byte sizing refuses to wrap: count * extent past the host range *)
  Alcotest.(check bool) "Datatype.bytes overflows loudly" true
    (match D.bytes D.int max_int with
    | (_ : int) -> false
    | exception Errors.Count_overflow { count; extent = _ } -> count = max_int);
  Alcotest.(check bool) "negative count rejected" true
    (match D.split_count (-1) with
    | (_ : int * int) -> false
    | exception Errors.Count_overflow _ -> true);
  (* flatten's total refuses to overflow too *)
  let flat = { Kamping.Flatten.data = V.create (); send_counts = [| max_int; 1 |] } in
  Alcotest.(check bool) "Flatten.total_count overflows loudly" true
    (match Kamping.Flatten.total_count flat with
    | (_ : int) -> false
    | exception Errors.Count_overflow _ -> true);
  let ok = { Kamping.Flatten.data = V.create (); send_counts = [| 3; 0; 4 |] } in
  Alcotest.(check int) "total_count sums" 7 (Kamping.Flatten.total_count ok)

(* ------------------------------------------------------------------ *)
(* Tracing: attribution and pure observation                           *)
(* ------------------------------------------------------------------ *)

(* Rank 0 computes 300us before starting its persistent send; rank 1
   starts its persistent recv at t=0 and waits.  The late-sender wait
   must charge rank 1 inside MPI_Wait — the round's blocking call —
   never inside MPI_Recv_init, which ran long before the delay. *)
let test_late_sender_charged_to_wait () =
  let res =
    Mpi.run ~trace:true ~ranks:2 (fun comm ->
        let r = Comm.rank comm in
        if r = 0 then begin
          let h = P.send_init comm D.int [| 42 |] ~dst:1 ~tag:6 in
          Comm.compute comm 300e-6;
          Persist.start h;
          ignore (Persist.wait h);
          Persist.free h
        end
        else begin
          let h = P.recv_init comm D.int [| 0 |] ~src:0 ~tag:6 in
          Persist.start h;
          ignore (Persist.wait h);
          Persist.free h
        end)
  in
  ignore (Mpi.results_exn res);
  let data = Option.get res.Mpi.trace in
  let ops = List.map (fun (s : Trace.Event.span) -> s.Trace.Event.sp_op) data.Trace.Event.spans in
  List.iter
    (fun op ->
      Alcotest.(check bool) (op ^ " span present") true (List.mem op ops))
    [ "MPI_Send_init"; "MPI_Recv_init"; "MPI_Start"; "MPI_Wait" ];
  let report = Trace.Analysis.analyze data in
  let late =
    List.filter
      (fun (ws : Trace.Analysis.wait_state) -> ws.Trace.Analysis.ws_class = Trace.Analysis.Late_sender)
      report.Trace.Analysis.wait_states
  in
  Alcotest.(check bool) "a late-sender wait was found" true (late <> []);
  List.iter
    (fun (ws : Trace.Analysis.wait_state) ->
      Alcotest.(check int) "charged to the receiver" 1 ws.Trace.Analysis.ws_rank;
      Alcotest.(check string) "attributed to the round's wait" "MPI_Wait"
        ws.Trace.Analysis.ws_op)
    late

(* Tracing a persistent/partitioned workload must not perturb it: same
   simulated time, event count and profile with the recorder off and on. *)
let test_persistent_trace_pure_observer () =
  let workload comm =
    let r = Comm.rank comm and p = Comm.size comm in
    let right = (r + 1) mod p and left = (r + p - 1) mod p in
    let sh = P.send_init comm D.int [| r |] ~dst:right ~tag:7 in
    let rh = P.recv_init comm D.int [| 0 |] ~src:left ~tag:7 in
    for _ = 1 to 3 do
      Persist.startall [ sh; rh ];
      ignore (Persist.wait sh);
      ignore (Persist.wait rh)
    done;
    Persist.free sh;
    Persist.free rh
  in
  let off = Mpi.run ~ranks workload in
  let on = Mpi.run ~trace:true ~ranks workload in
  ignore (Mpi.results_exn off);
  ignore (Mpi.results_exn on);
  Alcotest.(check bool) "trace captured" true (on.Mpi.trace <> None);
  Alcotest.check (Alcotest.float 0.0) "sim time" off.Mpi.sim_time on.Mpi.sim_time;
  Alcotest.(check int) "events" off.Mpi.events on.Mpi.events;
  Alcotest.(check (list (pair string int)))
    "profile" off.Mpi.profile.Mpisim.Profiling.calls on.Mpi.profile.Mpisim.Profiling.calls

(* ------------------------------------------------------------------ *)
(* The serving engine on persistent channels                           *)
(* ------------------------------------------------------------------ *)

(* Swapping the aggregator transport must be invisible to the store: the
   persistent run matches the host oracle, hence the ephemeral run. *)
let test_serve_persistent_digest () =
  let cfg =
    {
      Serve.default with
      Serve.n_keys = 64;
      n_shards = 8;
      rate = 5e4;
      duration = 1e-3;
      epoch = 0.25e-3;
      batch_threshold = 8;
      persistent = true;
      seed = 7;
    }
  in
  let r =
    Tutil.check_clean "serve on persistent channels" (fun () -> Serve.run ~ranks:4 cfg)
  in
  Alcotest.(check int) "store matches oracle" (Serve.expected_store_digest cfg)
    r.Serve.store_digest;
  Alcotest.(check int) "every request completed" r.Serve.issued r.Serve.completed;
  let eph = { cfg with Serve.persistent = false } in
  let re = Tutil.check_clean "serve ephemeral reference" (fun () -> Serve.run ~ranks:4 eph) in
  Alcotest.(check int) "transports agree on the store" re.Serve.store_digest r.Serve.store_digest

(* ------------------------------------------------------------------ *)
(* Receives from a failed peer                                         *)
(* ------------------------------------------------------------------ *)

(* Every receive flavour, run to completion on rank 0 from rank 1 under
   [tag]; each returns what it received (the sparse one its count). *)
let recv_flavours : (string * (Comm.t -> tag:int -> int)) list =
  [
    ( "recv",
      fun comm ~tag ->
        let b = [| 0 |] in
        ignore (P.recv comm D.int b ~src:1 ~tag);
        b.(0) );
    ( "irecv",
      fun comm ~tag ->
        let b = [| 0 |] in
        ignore (Req.wait (P.irecv comm D.int b ~src:1 ~tag));
        b.(0) );
    ( "recv_sparse",
      fun comm ~tag -> (P.recv_sparse comm D.int ~capacity:4 ~src:1 ~tag).Req.count );
    ( "recv_init",
      fun comm ~tag ->
        let b = [| 0 |] in
        let h = P.recv_init comm D.int b ~src:1 ~tag in
        Persist.start h;
        ignore (Persist.wait h);
        b.(0) );
    ( "precv_init",
      fun comm ~tag ->
        let b = [| 0; 0 |] in
        let h = P.precv_init comm D.int b ~partitions:2 ~count:1 ~src:1 ~tag in
        Persist.start h;
        ignore (Persist.wait h);
        b.(0) + b.(1) );
  ]

(* The matching send of each flavour: 42 in total, or 3 sparse elements. *)
let send_for name comm ~tag =
  match name with
  | "recv_sparse" -> P.send_sparse comm D.int ~count:3 ~dst:0 ~tag
  | "precv_init" ->
      let h = P.psend_init comm D.int [| 20; 22 |] ~partitions:2 ~count:1 ~dst:0 ~tag in
      Persist.start h;
      Persist.pready h 0;
      Persist.pready h 1
  | _ -> P.send comm D.int [| 42 |] ~dst:0 ~tag

(* Run a two-rank program where rank 1 dies at [kill]; rank 0 runs
   [body] and must finish it. *)
let with_dead_peer ~kill body =
  let r =
    Mpi.run ~ranks:2 ~fail_at:[ (1, kill) ] (fun comm ->
        if Comm.rank comm = 0 then body comm else Comm.compute comm 1.0)
  in
  match r.Mpi.results.(0) with Ok () -> () | Error e -> raise e

(* [f ()] must raise [Process_failed] for world rank 1 at simulated time
   [at], exactly. *)
let fails_at ~what comm ~at f =
  match f () with
  | (_ : int) -> Alcotest.failf "%s: receive from a dead peer succeeded" what
  | exception Errors.Process_failed { world_rank } ->
      Alcotest.(check int) (what ^ ": failed peer") 1 world_rank;
      Alcotest.(check (float 0.0)) (what ^ ": failure time") at (Comm.now comm)

(* A peer that died before the receive, with nothing of it arrived, fails
   every flavour at the receive's start plus the detection delay; a
   receive posted while the peer lived fails at the death plus the
   detection delay. *)
let test_recv_dead_peer () =
  List.iter
    (fun (name, flavour) ->
      with_dead_peer ~kill:1.0e-6 (fun comm ->
          Comm.compute comm 5.0e-6;
          let t0 = Comm.now comm in
          let dd = (Comm.world comm).Mpisim.World.detection_delay in
          fails_at ~what:(name ^ " after death") comm ~at:(t0 +. dd) (fun () ->
              flavour comm ~tag:5));
      with_dead_peer ~kill:3.0e-6 (fun comm ->
          let dd = (Comm.world comm).Mpisim.World.detection_delay in
          fails_at ~what:(name ^ " posted before death") comm ~at:(3.0e-6 +. dd) (fun () ->
              flavour comm ~tag:5)))
    recv_flavours

(* A message the peer sent before it died is matched on arrival: every
   flavour receives it, the partitioned one included (both partitions
   arrived, so none is missing from the dead peer). *)
let test_recv_arrived_from_dead_peer () =
  List.iter
    (fun (name, flavour) ->
      let r =
        Mpi.run ~ranks:2 ~fail_at:[ (1, 1.0e-6) ] (fun comm ->
            if Comm.rank comm = 1 then begin
              send_for name comm ~tag:6;
              Comm.compute comm 1.0
            end
            else begin
              Comm.compute comm 20.0e-6;
              Alcotest.(check int) (name ^ " received") (if name = "recv_sparse" then 3 else 42)
                (flavour comm ~tag:6)
            end)
      in
      match r.Mpi.results.(0) with Ok () -> () | Error e -> raise e)
    recv_flavours

(* A partitioned round with one partition arrived and one missing from a
   dead peer: the arrived partition is matched and copied, and the round
   fails at its start plus the detection delay. *)
let test_precv_partial_from_dead_peer () =
  let r =
    Mpi.run ~ranks:2 ~fail_at:[ (1, 1.0e-6) ] (fun comm ->
        if Comm.rank comm = 1 then begin
          let h = P.psend_init comm D.int [| 20; 22 |] ~partitions:2 ~count:1 ~dst:0 ~tag:6 in
          Persist.start h;
          Persist.pready h 0;
          Comm.compute comm 1.0
        end
        else begin
          Comm.compute comm 20.0e-6;
          let t0 = Comm.now comm in
          let dd = (Comm.world comm).Mpisim.World.detection_delay in
          let b = [| 0; 0 |] in
          let h = P.precv_init comm D.int b ~partitions:2 ~count:1 ~src:1 ~tag:6 in
          Persist.start h;
          Alcotest.(check bool) "partition 0 arrived" true (Persist.parrived h 0);
          Alcotest.(check bool) "partition 1 missing" false (Persist.parrived h 1);
          fails_at ~what:"precv_init, one partition missing" comm ~at:(t0 +. dd) (fun () ->
              ignore (Persist.wait h);
              0);
          Alcotest.(check (array int)) "arrived partition copied" [| 20; 0 |] b
        end)
  in
  match r.Mpi.results.(0) with Ok () -> () | Error e -> raise e

(* A persistent receive from a dead peer, cancelled and restarted before
   the first round's detection fires: the new round fails at its own
   start plus the detection delay, and the old round's timer is inert. *)
let test_recv_init_restart_dead_peer () =
  with_dead_peer ~kill:1.0e-6 (fun comm ->
      Comm.compute comm 5.0e-6;
      let dd = (Comm.world comm).Mpisim.World.detection_delay in
      let h = P.recv_init comm D.int [| 0 |] ~src:1 ~tag:7 in
      Persist.start h;
      Persist.cancel h;
      Comm.compute comm (dd /. 2.0);
      let t1 = Comm.now comm in
      Persist.start h;
      fails_at ~what:"restarted recv_init" comm ~at:(t1 +. dd) (fun () ->
          ignore (Persist.wait h);
          0);
      Persist.free h)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "persistent ring: restart reuses refilled envelope" `Quick
      test_ring_restart;
    Alcotest.test_case "lifecycle misuse rejected" `Quick test_lifecycle_errors;
    Alcotest.test_case "kamping pool surface: init/start_all/wait_all/free_all" `Quick
      test_kamping_pool_surface;
    Alcotest.test_case "pool rejects freed handles" `Quick test_pool_rejects_freed;
    Alcotest.test_case "bcast_init across rounds" `Quick test_bcast_init_rounds;
    Alcotest.test_case "partitioned: reverse pready order, parrived" `Quick
      test_partitioned_reverse_release;
    Alcotest.test_case "partitioned usage errors" `Quick test_partitioned_usage_errors;
    Alcotest.test_case "sessions: memoized, isolated, pset-derived comms" `Quick
      test_session_isolation;
    test_split_join_roundtrip;
    test_serialization_count_roundtrip;
    Alcotest.test_case "sparse transfer beyond 2^31 elements" `Quick test_sparse_huge_count;
    Alcotest.test_case "sparse truncation keeps 64-bit counts exact" `Quick
      test_sparse_truncation_diagnostic;
    Alcotest.test_case "count-overflow diagnostics" `Quick test_count_overflow_diagnostics;
    Alcotest.test_case "late sender charged to Start/Wait, not init" `Quick
      test_late_sender_charged_to_wait;
    Alcotest.test_case "tracing persistent ops is a pure observer" `Quick
      test_persistent_trace_pure_observer;
    Alcotest.test_case "serving store identical on persistent channels" `Quick
      test_serve_persistent_digest;
    Alcotest.test_case "every receive flavour fails on a dead peer" `Quick test_recv_dead_peer;
    Alcotest.test_case "arrived message from a dead peer" `Quick
      test_recv_arrived_from_dead_peer;
    Alcotest.test_case "restarted recv_init fails on its own round" `Quick
      test_recv_init_restart_dead_peer;
    Alcotest.test_case "partitioned round with a partition missing from a dead peer" `Quick
      test_precv_partial_from_dead_peer;
  ]
