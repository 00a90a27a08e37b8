(* The MPI-4 surface benchmark (BENCH_mpi4.json): three self-validated
   gates over the persistent/partitioned layer.

   1. {b Persistent serving} — the sharded request-serving engine with
      both aggregators on persistent channels versus the ephemeral
      transport, under a network whose per-call software setup cost
      ([Netmodel.setup_overhead]) is explicit.  Persistent channels pay
      that cost once at [*_init]; the ephemeral path pays it per
      send/recv.  Gate: >= 1.15x throughput, with both final stores
      bit-identical to the host oracle.

   2. {b Profiling equality} — persistent handles that are created but
      never started must be invisible: zero extra messages, bytes,
      simulated time or events, and the only new profiled calls are the
      [*_init] registrations themselves (MPI_Start/Wait are charged per
      round, never at rest).

   3. {b Transport equivalence} — the persistent_halo gallery example's
      persistent and ephemeral variants must produce bit-identical
      digests, on the incumbent schedule and across 20 random
      schedules. *)

module J = Serde.Json
module D = Mpisim.Datatype
module P = Mpisim.P2p
module Prof = Mpisim.Profiling

let ranks = 6

(* ---------------- gate 1: persistent serving ---------------- *)

(* 2 us of per-call software setup: the regime real persistent requests
   target (match-once, send-many).  The serving engine's throughput is
   overhead-bound at the Zipf head, so cutting per-block setup shows up
   directly in sim_time. *)
let serving_net = { Simnet.Netmodel.default with Simnet.Netmodel.setup_overhead = 2.0e-6 }

let serving_cfg = { Serve.default with Serve.batch_threshold = 8 }

type serving_row = { persistent : bool; r : Serve.report; digest_ok : bool }

let serving_run ~persistent =
  let cfg = { serving_cfg with Serve.persistent } in
  let r = Serve.run ~net:serving_net ~ranks cfg in
  { persistent; r; digest_ok = r.Serve.store_digest = Serve.expected_store_digest cfg }

(* ---------------- gate 2: idle handles are free ---------------- *)

(* A fixed ring workload, optionally decorated with persistent handles
   that are created, left idle, and freed.  The decorated run must be
   indistinguishable except for the *_init registrations. *)
let ring_workload ~idle comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let right = (r + 1) mod p and left = (r + p - 1) mod p in
  let idle_handles =
    if not idle then []
    else
      [
        P.send_init comm D.int [| 0 |] ~dst:right ~tag:5;
        P.recv_init comm D.int [| 0 |] ~src:left ~tag:5;
        Mpisim.Collectives.bcast_init comm D.int [| 0 |] ~root:0;
      ]
  in
  let buf = [| r |] in
  for _ = 1 to 8 do
    P.send comm D.int [| r |] ~dst:right ~tag:1;
    ignore (P.recv comm D.int buf ~src:left ~tag:1)
  done;
  List.iter Mpisim.Persist.free idle_handles;
  buf.(0)

type idle_cmp = {
  extra_calls : (string * int) list;
  extra_algo : (string * int) list;
  extra_messages : int;
  extra_bytes : int;
  time_equal : bool;
  events_equal : bool;
  only_inits : bool;
}

let idle_compare () =
  let base = Mpisim.Mpi.run ~ranks (ring_workload ~idle:false) in
  let idle = Mpisim.Mpi.run ~ranks (ring_workload ~idle:true) in
  Array.iter (function Error e -> raise e | Ok _ -> ()) base.Mpisim.Mpi.results;
  Array.iter (function Error e -> raise e | Ok _ -> ()) idle.Mpisim.Mpi.results;
  let d = Prof.diff ~before:base.Mpisim.Mpi.profile ~after:idle.Mpisim.Mpi.profile in
  let is_init (name, _) =
    let suffix = "_init" in
    String.length name >= String.length suffix
    && String.sub name (String.length name - String.length suffix) (String.length suffix)
       = suffix
  in
  {
    extra_calls = d.Prof.calls;
    extra_algo = d.Prof.algo_calls;
    extra_messages = d.Prof.messages;
    extra_bytes = d.Prof.bytes;
    time_equal = base.Mpisim.Mpi.sim_time = idle.Mpisim.Mpi.sim_time;
    events_equal = base.Mpisim.Mpi.events = idle.Mpisim.Mpi.events;
    only_inits =
      d.Prof.calls <> [] && List.for_all is_init d.Prof.calls
      && List.fold_left (fun acc (_, n) -> acc + n) 0 d.Prof.calls = 3 * ranks;
  }

(* ---------------- gate 3: transport equivalence ---------------- *)

let schedules = 20

let halo_digests () =
  (* [digest] itself runs both transports and fails on divergence, so one
     call per schedule covers persistent-vs-ephemeral equality; comparing
     across schedules covers schedule independence. *)
  let reference = Explore.unexplored (fun () -> Gallery.Persistent_halo.digest ()) in
  let divergent = ref 0 in
  for i = 1 to schedules do
    let got, _token =
      Explore.with_strategy
        ~strategy:(Explore.Random { seed = 40400 + i })
        (fun () -> Gallery.Persistent_halo.digest ())
    in
    if got <> reference then incr divergent
  done;
  (reference, !divergent)

let run () =
  Printf.printf "MPI-4 surface: persistent channels, partitioned transfer, idle-handle cost\n\n";

  (* gate 1 *)
  let eph = serving_run ~persistent:false in
  let pers = serving_run ~persistent:true in
  let speedup = pers.r.Serve.throughput /. eph.r.Serve.throughput in
  Table_fmt.print_table ~title:"serving transport (setup overhead 2 us/call)"
    ~header:[ "transport"; "tput req/s"; "p99"; "sim time"; "exact" ]
    (List.map
       (fun { persistent; r; digest_ok } ->
         [
           (if persistent then "persistent" else "ephemeral");
           Printf.sprintf "%.3g" r.Serve.throughput;
           Printf.sprintf "%.1f us" (1e6 *. r.Serve.p99);
           Table_fmt.seconds r.Serve.sim_time;
           (if digest_ok then "yes" else "NO");
         ])
       [ eph; pers ]);
  Printf.printf "  persistent-channel speedup: %.2fx\n\n" speedup;

  (* gate 2 *)
  let idle = idle_compare () in
  Printf.printf "idle persistent handles (per %d ranks: send_init + recv_init + bcast_init):\n"
    ranks;
  Printf.printf "  extra profiled calls: %s\n"
    (String.concat ", "
       (List.map (fun (n, c) -> Printf.sprintf "%s:%d" n c) idle.extra_calls));
  Printf.printf "  extra messages/bytes: %d/%d, sim time equal: %b, events equal: %b\n\n"
    idle.extra_messages idle.extra_bytes idle.time_equal idle.events_equal;

  (* gate 3 *)
  let reference, divergent = halo_digests () in
  Printf.printf
    "persistent vs ephemeral halo: digests bit-identical on %d/%d random schedules\n\n"
    (schedules - divergent) schedules;

  let serving_ok = speedup >= 1.15 && eph.digest_ok && pers.digest_ok in
  let idle_ok =
    idle.only_inits && idle.extra_messages = 0 && idle.extra_bytes = 0 && idle.time_equal
    && idle.events_equal
    (* algorithm selection happens once at bcast_init and is recorded
       there; nothing else may show up in the algorithm category *)
    && List.for_all
         (fun (n, _) -> String.length n >= 8 && String.sub n 0 8 = "MPI_Bcas")
         idle.extra_algo
  in
  let halo_ok = divergent = 0 in

  let json_of_report (r : Serve.report) =
    J.Obj
      [
        ("completed", J.Num (float_of_int r.Serve.completed));
        ("throughput_rps", J.Num r.Serve.throughput);
        ("p99_s", J.Num r.Serve.p99);
        ("sim_time_s", J.Num r.Serve.sim_time);
      ]
  in
  let json =
    J.Obj
      [
        ( "config",
          J.Obj
            [
              ("ranks", J.Num (float_of_int ranks));
              ("setup_overhead_s", J.Num serving_net.Simnet.Netmodel.setup_overhead);
              ("batch_threshold", J.Num (float_of_int serving_cfg.Serve.batch_threshold));
              ("schedules", J.Num (float_of_int schedules));
            ] );
        ( "serving",
          J.Obj
            [
              ("ephemeral", json_of_report eph.r);
              ("persistent", json_of_report pers.r);
              ("speedup", J.Num speedup);
              ("digests_ok", J.Bool (eph.digest_ok && pers.digest_ok));
            ] );
        ( "idle_handles",
          J.Obj
            [
              ( "extra_calls",
                J.Obj
                  (List.map (fun (n, c) -> (n, J.Num (float_of_int c))) idle.extra_calls) );
              ("extra_messages", J.Num (float_of_int idle.extra_messages));
              ("extra_bytes", J.Num (float_of_int idle.extra_bytes));
              ("sim_time_equal", J.Bool idle.time_equal);
              ("events_equal", J.Bool idle.events_equal);
            ] );
        ( "halo",
          J.Obj
            [
              ("digest", J.Str reference);
              ("schedules", J.Num (float_of_int schedules));
              ("divergent", J.Num (float_of_int divergent));
            ] );
      ]
  in
  Bench_report.report ~name:"mpi4" ~path:"BENCH_mpi4.json" json
    [
      ("persistent_serving_speedup_over_15_percent", serving_ok);
      ("idle_handles_profile_invisible", idle_ok);
      ("transports_bit_identical_across_schedules", halo_ok);
    ]
