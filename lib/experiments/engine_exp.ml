(* The [engine] experiment: scale and overhead of the simulator core.

   Four measurements, all written to BENCH_engine.json through
   {!Bench_report} (every entry of its "checks" object must be true):

   - {b Throughput} — a synthetic halo-exchange workload on
     {!Simnet.Engine} at p=4096 (median of 3 runs, which
     must execute identical event counts) must clear an absolute
     events/sec floor.
   - {b Ranks scaling} — the engine's events/sec across
     p in {256, 1024, 4096, 16384}.  The event heap costs O(log p) per
     event; throughput must still stay roughly flat (worst point within
     4x of the best), and the p=16384 point must finish inside the
     smoke-time budget.
   - {b Zero-alloc steady state} — [Gc.minor_words] across the run,
     divided by events executed: the pooled event loop must stay under a
     small constant per event (the workload's own boxed-float argument
     passing included).
   - {b Gallery subset} — events/sec over real MPI programs (three
     gallery examples via {!Mpisim.Mpi.with_run_collector}), plus the
     host-profiler pure-observer check: digests, event counts and
     simulated times are identical with profiling Off and Fine. *)

module J = Serde.Json
module Profile = Simnet.Profile
module E = Simnet.Engine

(* Synthetic halo exchange, shaped to be queue-dominated: every rank
   keeps [fanout] self-rescheduling callback chains in flight (its
   neighbour exchanges), each rescheduling with a deterministic
   per-chain delay jitter so events spread over distinct timestamps the
   way real per-link latencies do, until a shared event budget of
   [ranks * fanout * rounds] runs out.  The closures are preallocated —
   one per chain, reused every round — and the budget counter is a
   single hot cell, so the steady state measures the engine, not the
   workload.  The budget drains identically on every run of the same
   schedule, so repeat runs must execute identical event counts. *)
let synth ~ranks ~fanout ~rounds =
  let e = E.create () in
  let budget = ref (ranks * fanout * rounds) in
  for r = 0 to ranks - 1 do
    for lane = 0 to fanout - 1 do
      let jitter = float_of_int (((r * 2654435761) + (lane * 40503)) land 1023) *. 1e-9 in
      let d = 1e-6 +. jitter in
      let rec fire () =
        decr budget;
        if !budget > 0 then E.schedule e ~delay:d fire
      in
      E.schedule e ~delay:((float_of_int lane *. 1e-7) +. jitter) fire
    done
  done;
  let w0 = Gc.minor_words () in
  let t0 = Profile.now_ns () in
  E.run e;
  let t1 = Profile.now_ns () in
  let w1 = Gc.minor_words () in
  let events = E.events_processed e in
  let wall = float_of_int (t1 - t0) /. 1e9 in
  (events, wall, (w1 -. w0) /. float_of_int events)

(* Median wall-clock of [n] identical runs, so the throughput floor does
   not flap on one noisy measurement; [same_events] is whether every run
   executed the same number of events. *)
let synth_median ~n ~ranks ~fanout ~rounds =
  let runs = List.init n (fun _ -> synth ~ranks ~fanout ~rounds) in
  let events, _, _ = List.hd runs in
  let same_events = List.for_all (fun (ev, _, _) -> ev = events) runs in
  let walls = List.sort Float.compare (List.map (fun (_, w, _) -> w) runs) in
  let wpes = List.sort Float.compare (List.map (fun (_, _, a) -> a) runs) in
  (events, same_events, List.nth walls (n / 2), List.nth wpes (n / 2))

(* One self-rescheduling exchange chain per rank: the p=4096 point then
   holds 4096 concurrent events. *)
let fanout = 1
let event_target = 2_000_000

let rounds_for ranks = max 2 (event_target / (ranks * fanout))

let evps events wall = float_of_int events /. wall

(* ---------------- gallery subset ---------------- *)

let gallery_subset : (string * (unit -> string)) list =
  [
    ("halo_exchange", Gallery.Halo_exchange.digest);
    ("word_count", Gallery.Word_count.digest);
    ("sample_sort_example", Gallery.Sample_sort_example.digest);
  ]

type gallery_obs = {
  g_digests : string list;
  g_events : int;
  g_sim_times : float list;
  g_wall : float;
}

let observe_gallery () =
  let t0 = Profile.now_ns () in
  let (digests : string list), summaries =
    Mpisim.Mpi.with_run_collector (fun () ->
        List.map (fun (_, digest) -> digest ()) gallery_subset)
  in
  let t1 = Profile.now_ns () in
  {
    g_digests = digests;
    g_events = List.fold_left (fun a s -> a + s.Mpisim.Mpi.rs_events) 0 summaries;
    g_sim_times = List.map (fun s -> s.Mpisim.Mpi.rs_sim_time) summaries;
    g_wall = float_of_int (t1 - t0) /. 1e9;
  }

(* ---------------- gates ---------------- *)

(* Conservative absolute floor for the engine on the p=4096 synthetic
   exchange.  It flags an order-of-magnitude regression (an allocating
   event loop, an accidentally quadratic queue) without tripping on
   slower CI hardware. *)
let evps_floor = 1_000_000.0

(* Per-event minor-heap budget for the pooled loop, in words.  The
   workload itself boxes one float argument per event (~3 words); the
   engine must add nothing on the steady-state path. *)
let words_per_event_budget = 8.0

(* Host-seconds budget for the p=16384 scaling point (CI smoke). *)
let p16384_budget_s = 60.0

let run () =
  let p_main = 4096 in
  Printf.printf "synthetic halo exchange: %d lanes/rank, ~%d events per point\n\n" fanout
    event_target;

  (* throughput at the headline size: median of 3 runs *)
  let syn_events, same_events, syn_wall, syn_wpe =
    synth_median ~n:3 ~ranks:p_main ~fanout ~rounds:(rounds_for p_main)
  in
  let syn_evps = evps syn_events syn_wall in
  Printf.printf "p=%d (%d events): %10.0f events/s  %5.1f words/event\n\n" p_main syn_events
    syn_evps syn_wpe;

  (* ranks scaling *)
  let sizes = [ 256; 1024; 4096; 16384 ] in
  let scaling =
    List.map
      (fun p ->
        let events, wall, _ = synth ~ranks:p ~fanout ~rounds:(rounds_for p) in
        let e = evps events wall in
        Printf.printf "  p=%-6d %10.0f events/s  (%d events, %.2fs)\n" p e events wall;
        (p, e, wall))
      sizes
  in
  let best = List.fold_left (fun a (_, e, _) -> Float.max a e) 0.0 scaling in
  let worst = List.fold_left (fun a (_, e, _) -> Float.min a e) infinity scaling in
  let scaling_flat = worst >= 0.25 *. best in
  let p16384_wall =
    match List.rev scaling with (_, _, w) :: _ -> w | [] -> infinity
  in
  Printf.printf "  flatness: worst/best = %.2f\n\n" (worst /. best);

  (* gallery subset, host profiler off vs fine *)
  let off = Profile.with_level Profile.Off observe_gallery in
  Profile.reset ();
  let fine = Profile.with_level Profile.Fine observe_gallery in
  let counter name =
    let snap = Profile.snapshot () in
    match List.assoc_opt name snap.Profile.counters with Some n -> n | None -> 0
  in
  let env_made = counter "mpi.envelopes_made" in
  let env_reused = counter "mpi.envelopes_reused" in
  Profile.reset ();
  let pure_observer =
    off.g_digests = fine.g_digests
    && off.g_events = fine.g_events
    && off.g_sim_times = fine.g_sim_times
  in
  let g_evps = evps off.g_events off.g_wall in
  Printf.printf "gallery subset (%s):\n"
    (String.concat ", " (List.map fst gallery_subset));
  Printf.printf "  %d events in %.2fs host = %10.0f events/s\n" off.g_events off.g_wall g_evps;
  Printf.printf "  profiler off vs fine: %s\n"
    (if pure_observer then "bit-identical" else "DIVERGED");
  Printf.printf "  envelope pool (fine run): %d made, %d reused (%.0f%% reuse)\n\n" env_made
    env_reused
    (100.0 *. float_of_int env_reused /. float_of_int (max 1 (env_made + env_reused)));

  let json =
    J.Obj
      [
        ("experiment", J.Str "engine");
        ( "synthetic",
          J.Obj
            [
              ("ranks", J.Num (float_of_int p_main));
              ("fanout", J.Num (float_of_int fanout));
              ("events", J.Num (float_of_int syn_events));
              ("heap_events_per_s", J.Num syn_evps);
              ("heap_minor_words_per_event", J.Num syn_wpe);
            ] );
        ( "scaling",
          J.List
            (List.map
               (fun (p, e, w) ->
                 J.Obj
                   [
                     ("ranks", J.Num (float_of_int p));
                     ("events_per_s", J.Num e);
                     ("wall_s", J.Num w);
                   ])
               scaling) );
        ( "gallery",
          J.Obj
            [
              ("examples", J.List (List.map (fun (n, _) -> J.Str n) gallery_subset));
              ("events", J.Num (float_of_int off.g_events));
              ("wall_s", J.Num off.g_wall);
              ("events_per_s", J.Num g_evps);
              ("envelopes_made", J.Num (float_of_int env_made));
              ("envelopes_reused", J.Num (float_of_int env_reused));
            ] );
      ]
  in
  Bench_report.report ~name:"engine" ~path:"BENCH_engine.json" json
    [
      ("synthetic_events_equal", same_events);
      ("heap_evps_floor", syn_evps >= evps_floor);
      ("scaling_flat_within_4x", scaling_flat);
      ("p16384_in_budget", p16384_wall <= p16384_budget_s);
      ("zero_alloc_steady_state", syn_wpe <= words_per_event_budget);
      ("profiler_pure_observer", pure_observer);
      ("envelopes_reused", env_reused > env_made);
    ]
