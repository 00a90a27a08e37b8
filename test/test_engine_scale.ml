(* Scale and equivalence tests for the engine and its event queue.

   The event queue (Simnet.Pqueue) must keep the EXACT (time, seq) total
   order — any divergence silently changes every simulated schedule in
   the repo.  These tests pin that order differentially against the
   reference heap (test/binheap.ml), stress the queue's growth and
   drain, check that popped closures are released, check the host
   profiler is a pure observer at every level, exercise the engine at
   1k-8k ranks, assert the zero-alloc steady state, and pin the
   fiber-table pruning bound. *)

open Simnet

(* ------------------------------------------------------------------ *)
(* Differential: event queue vs the reference binary heap.            *)
(* ------------------------------------------------------------------ *)

(* Clock-relative operation scripts: pushes file an event at
   [clock + delta] (deltas include exact ties, tiny jitter, and
   far-future outliers), pops advance the clock.  A repush pops an entry
   and pushes it back at the clock under its old seq, as the engine's
   chooser does with the same-time events it did not pick; that seq is
   older than entries pushed since.  The queue enforces push >= last
   popped time, which clock-relative deltas satisfy by construction. *)
type qop = Push of float * int | Pop | Repush

let qop_gen =
  QCheck2.Gen.(
    let delta =
      oneof
        [
          return 0.0; (* exact tie with the current clock *)
          float_bound_exclusive 1e-3; (* jitter *)
          map (fun f -> 1.0 +. f) (float_bound_exclusive 100.0);
          map (fun f -> 1e6 +. f) (float_bound_exclusive 1e6); (* far future *)
        ]
    in
    let owner = int_range (-1) 1000 in
    list_size (int_range 10 300)
      (frequency
         [ (3, map2 (fun d o -> Push (d, o)) delta owner); (2, return Pop); (1, return Repush) ]))

let prop_differential =
  Tutil.qtest ~count:1000 "event queue = binary heap ((time,seq,owner) order)" qop_gen
    (fun ops ->
      let pq = Pqueue.create () in
      let heap : int Binheap.t = Binheap.create () in
      let clock = ref 0.0 in
      let seq = ref 0 in
      let log_pq = ref [] and log_heap = ref [] in
      (* a repush puts each side's popped entry back under its old seq *)
      let pop_both ~repush =
        (match Pqueue.pop_min pq with
        | Some (t, s, o, _) ->
            clock := t;
            log_pq := (t, s, o) :: !log_pq;
            if repush then Pqueue.push pq ~time:t ~seq:s ~owner:o (fun () -> ())
        | None -> ());
        match Binheap.pop_min heap with
        | Some (t, s, o) ->
            log_heap := (t, s, o) :: !log_heap;
            if repush then Binheap.push heap ~time:t ~seq:s o
        | None -> ()
      in
      List.iter
        (function
          | Push (d, owner) ->
              let t = !clock +. d in
              incr seq;
              Pqueue.push pq ~time:t ~seq:!seq ~owner (fun () -> ());
              Binheap.push heap ~time:t ~seq:!seq owner
          | Pop -> pop_both ~repush:false
          | Repush -> pop_both ~repush:true)
        ops;
      while not (Pqueue.is_empty pq) do
        pop_both ~repush:false
      done;
      Binheap.is_empty heap && !log_pq = !log_heap)

(* ------------------------------------------------------------------ *)
(* Heap grow/drain stress and space safety.                           *)
(* ------------------------------------------------------------------ *)

(* Grow through every doubling up to 50k entries (with outliers parked in
   the far future), drain to almost nothing, and refill — then verify
   the queue still pops the exact (time, seq) order. *)
let test_grow_drain_stress () =
  let q = Pqueue.create () in
  let seq = ref 0 in
  let pushed = ref [] in
  let popped = ref [] in
  let push time =
    incr seq;
    Pqueue.push q ~time ~seq:!seq ~owner:(!seq land 0xFF) (fun () -> ());
    pushed := (time, !seq) :: !pushed
  in
  let pop () =
    match Pqueue.pop_min q with
    | Some (t, s, _, _) ->
        popped := (t, s) :: !popped;
        t
    | None -> Alcotest.fail "queue empty but entries remain"
  in
  (* growth: 50k entries spread over ~1000s, 1 in 500 a far outlier *)
  for i = 1 to 50_000 do
    let t = float_of_int (i * 7919 mod 100_000) *. 1e-2 in
    push (if i mod 500 = 0 then t +. 1e9 else t)
  done;
  (* drain to 100 *)
  let last = ref 0.0 in
  while Pqueue.length q > 100 do
    last := pop ()
  done;
  (* refill beyond the last popped time, then drain completely *)
  for i = 1 to 10_000 do
    push (!last +. (float_of_int i *. 1e-3))
  done;
  while not (Pqueue.is_empty q) do
    ignore (pop () : float)
  done;
  (* completeness: every pushed (time, seq) came back exactly once *)
  let sorted l = List.sort compare l in
  Alcotest.(check bool) "all entries popped exactly once" true
    (sorted !pushed = sorted !popped);
  (* exactness: each drain ran in nondecreasing (time, seq) order — the
     refill pushed strictly after the first drain's last popped time, so
     the whole popped sequence must be sorted *)
  let rec is_sorted = function
    | a :: (b :: _ as rest) -> a <= b && is_sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "popped in (time, seq) order" true (is_sorted (List.rev !popped));
  Alcotest.(check bool) "peak reached 50k" true (Pqueue.peak q >= 50_000)

(* A popped event must not stay reachable from the queue: push closures
   that each capture a fresh buffer, pop them all, push and pop one dummy
   (so the popped-event scratch cell moves on), and every buffer must be
   collectable while the queue is still live. *)
let test_pop_releases_closures () =
  let n = 200 in
  let q = Pqueue.create () in
  let bufs = Weak.create n in
  for i = 0 to n - 1 do
    let buf = Bytes.make 64 'x' in
    Weak.set bufs i (Some buf);
    Pqueue.push q ~time:(float_of_int (i mod 7)) ~seq:(i + 1) ~owner:0 (fun () ->
        ignore (Bytes.length buf : int))
  done;
  while Pqueue.pop q do
    ()
  done;
  Pqueue.push q ~time:7.0 ~seq:(n + 1) ~owner:0 (fun () -> ());
  ignore (Pqueue.pop q : bool);
  Gc.full_major ();
  for i = 0 to n - 1 do
    if Weak.check bufs i then Alcotest.failf "buffer %d still reachable after its pop" i
  done;
  (* the queue itself must still be live when the buffers are checked *)
  Alcotest.(check int) "queue empty" 0 (Pqueue.length q)

(* ------------------------------------------------------------------ *)
(* Host profiler: pure observer over the whole gallery.                *)
(* ------------------------------------------------------------------ *)

module Profile = Simnet.Profile

let all_gallery_digests : (string * (unit -> string)) list =
  [
    ("quickstart", Gallery.Quickstart.digest);
    ("vector_allgather", Gallery.Vector_allgather.digest);
    ("serialization_example", Gallery.Serialization_example.digest);
    ("nonblocking_safety", Gallery.Nonblocking_safety.digest);
    ("one_sided", Gallery.One_sided.digest);
    ("word_count", Gallery.Word_count.digest);
    ("reproducible_reduce_example", Gallery.Reproducible_reduce_example.digest);
    ("tracing_example", Gallery.Tracing_example.digest);
    ("sorter_example", Gallery.Sorter_example.digest);
    ("sample_sort_example", Gallery.Sample_sort_example.digest);
    ("halo_exchange", Gallery.Halo_exchange.digest);
    ("bfs_example", Gallery.Bfs_example.digest);
    ("fault_tolerance", Gallery.Fault_tolerance.digest);
    ("checkpoint_restart", Gallery.Checkpoint_restart.digest);
    ("serving", Gallery.Serving.digest);
  ]

(* Profiling must never perturb a schedule: every gallery example's
   digest is bit-identical with the profiler Off, Coarse and Fine. *)
let test_profiler_pure_observer () =
  List.iter
    (fun (name, digest) ->
      let at level =
        Profile.reset ();
        Profile.with_level level digest
      in
      let off = at Profile.Off in
      let coarse = at Profile.Coarse in
      let fine = at Profile.Fine in
      Profile.reset ();
      Alcotest.(check string) (name ^ ": off = coarse") off coarse;
      Alcotest.(check string) (name ^ ": off = fine") off fine)
    all_gallery_digests

(* Exploration under Fine profiling: the replay token still round-trips
   through its string form and replays to the identical verdict digest,
   i.e. profiling doesn't leak into recorded decisions. *)
let test_explore_token_under_fine () =
  let prog comm =
    let p = Mpisim.Comm.size comm and r = Mpisim.Comm.rank comm in
    let buf = Array.make p 0 in
    Mpisim.Collectives.allgather comm Mpisim.Datatype.int ~sendbuf:[| (r * r) + 1 |]
      ~recvbuf:buf ~count:1;
    Array.fold_left ( + ) 0 buf
  in
  let digest_of obs =
    match Explore.verdict_of obs with
    | Explore.Pass d -> d
    | Explore.Fail reason -> Alcotest.failf "expected a clean run, got: %s" reason
  in
  Profile.reset ();
  let obs =
    Profile.with_level Profile.Fine (fun () ->
        Explore.run ~strategy:(Explore.Random { seed = 11 }) ~ranks:4 prog)
  in
  let tok = obs.Explore.token in
  let s = Explore.token_to_string tok in
  Alcotest.(check bool) "token round-trips" true (Explore.token_of_string s = tok);
  let replayed = Profile.with_level Profile.Fine (fun () -> Explore.replay tok ~ranks:4 prog) in
  Profile.reset ();
  Alcotest.(check string) "replay digest" (digest_of obs) (digest_of replayed)

(* ------------------------------------------------------------------ *)
(* Large-p stress.                                                     *)
(* ------------------------------------------------------------------ *)

(* A 1D Jacobi halo exchange (the gallery workload) at p=1024 under the
   watchdog: the run must finish, and two runs must agree bitwise. *)
let halo_at ~ranks ~steps () =
  Tutil.run ~ranks (fun comm ->
      let cart = Mpisim.Cart.create comm ~dims:[| ranks |] ~periodic:[| false |] in
      let r = Mpisim.Comm.rank comm in
      let u = Array.make 3 0.0 in
      if r = 0 then u.(1) <- 1000.0;
      for _ = 1 to steps do
        let send_low = [| u.(1) |] and send_high = [| u.(1) |] in
        let recv_low = [| u.(0) |] and recv_high = [| u.(2) |] in
        ignore
          (Mpisim.Cart.halo_exchange cart Mpisim.Datatype.float ~dim:0 ~send_low ~send_high
             ~recv_low ~recv_high
            : int);
        u.(0) <- recv_low.(0);
        u.(2) <- recv_high.(0);
        if r = 0 then u.(0) <- u.(1);
        if r = ranks - 1 then u.(2) <- u.(1);
        u.(1) <- u.(1) +. (0.25 *. (u.(0) -. (2.0 *. u.(1)) +. u.(2)))
      done;
      u.(1))

let test_halo_p1024 () =
  let a = halo_at ~ranks:1024 ~steps:3 () in
  let b = halo_at ~ranks:1024 ~steps:3 () in
  Alcotest.(check int) "all ranks answered" 1024 (Array.length a);
  Alcotest.(check bool) "deterministic across runs" true (a = b);
  (* the spike diffuses: rank 0 cooled, rank 1 warmed, far ranks still 0 *)
  Alcotest.(check bool) "heat moved" true (a.(0) < 1000.0 && a.(1) > 0.0 && a.(1023) = 0.0)

(* The synthetic exchange at p=8192 directly on the engine: one
   self-rescheduling chain per rank until a shared budget drains.  The
   steady state must execute events without allocating. *)
let test_synthetic_p8192_zero_alloc () =
  let lanes = 8192 in
  let e = Engine.create () in
  Engine.set_deadline e 60.0;
  let budget = ref 500_000 in
  for r = 0 to lanes - 1 do
    let jitter = float_of_int ((r * 2654435761) land 1023) *. 1e-9 in
    let d = 1e-6 +. jitter in
    let rec fire () =
      decr budget;
      if !budget > 0 then Engine.schedule e ~delay:d fire
    in
    Engine.schedule e ~delay:jitter fire
  done;
  let w0 = Gc.minor_words () in
  Engine.run e;
  let w1 = Gc.minor_words () in
  let events = Engine.events_processed e in
  Alcotest.(check bool) "budget drained" true (events >= 500_000 && events < 500_000 + lanes);
  let words_per_event = (w1 -. w0) /. float_of_int events in
  if words_per_event >= 0.5 then
    Alcotest.failf "steady state allocates: %.2f minor words/event (want < 0.5)" words_per_event

(* ------------------------------------------------------------------ *)
(* Fiber-table pruning.                                                *)
(* ------------------------------------------------------------------ *)

(* 10k spawn/complete cycles: the pre-refactor engine kept every fiber
   ever spawned (and scanned the full list on quiesce); the table must
   now stay within the compaction bound. *)
let test_fiber_pruning () =
  let e = Engine.create () in
  for _wave = 1 to 100 do
    for _i = 1 to 100 do
      ignore (Engine.spawn e ~label:"w" (fun () -> Engine.delay e 1e-9) : Engine.fiber)
    done;
    Engine.run e
  done;
  Alcotest.(check int) "no live fibers" 0 (Engine.live_fibers e);
  let tracked = Engine.tracked_fibers e in
  if tracked > 128 then
    Alcotest.failf "fiber table not pruned: %d entries tracked after 10k retirements" tracked

let suite =
  [
    prop_differential;
    Alcotest.test_case "heap grow/drain stress" `Quick test_grow_drain_stress;
    Alcotest.test_case "popped closures are released" `Quick test_pop_releases_closures;
    Alcotest.test_case "profiler is a pure observer (all gallery)" `Slow
      test_profiler_pure_observer;
    Alcotest.test_case "explore token round-trip under Fine" `Quick
      test_explore_token_under_fine;
    Alcotest.test_case "halo exchange at p=1024" `Slow test_halo_p1024;
    Alcotest.test_case "synthetic exchange at p=8192, zero-alloc" `Slow
      test_synthetic_p8192_zero_alloc;
    Alcotest.test_case "fiber table pruning after 10k cycles" `Quick test_fiber_pruning;
  ]
