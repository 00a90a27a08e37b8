(* The repository benchmark: three simulator workloads, each a closed loop
   of batch jobs (one simulated MPI job at a time; the next starts when
   the previous one has returned).

   [--trace 0] measures what a user sees: untraced jobs at the default
   checker level ([Light]) report host wall time, set-up time, simulated
   makespan, host allocation and peak RSS.

   [--trace 1] measures the layers from outside the library.  It
   interleaves the same job with the tracer on, with the [Fine] host
   profiler on and at other checker levels (none of which may change the
   simulated schedule), runs workload-specific differentials, reads the
   public snapshots ([Mpi.run_result], [Mpisim.Profiling],
   [Simnet.Profile], [Trace.Analysis]), and runs probes that call one
   layer's public API with the workload's own counts and sizes.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
          bench.exe --list-metrics
   The last line of standard output is one JSON object. *)

module K = Kamping.Comm
module Gen = Graphgen.Generators
module G = Graphgen.Distgraph
module Mpi = Mpisim.Mpi
module Prof = Mpisim.Profiling
module Checker = Mpisim.Checker
module Net = Simnet.Netmodel
module Engine = Simnet.Engine
module Profile = Simnet.Profile
module Select = Coll_algos.Select
module Codec = Serde.Codec

(* ---- metric catalogue ------------------------------------------------ *)

type metric = { name : string; unit : string; better : string; moves : string }

let m name unit better moves = { name; unit; better; moves }

let end_to_end =
  [
    m "wall_s" "s" "lower" "host wall time of one job, Mpi.run to result (fastest job)";
    m "setup_s" "s" "lower" "job start to first event: inputs, fabric, world (fastest job)";
    m "sim_time_s" "s" "lower" "simulated makespan";
    m "alloc_mwords" "Mwords" "lower" "host words allocated inside Mpi.run";
    m "peak_rss_mb" "MB" "lower" "host memory high-water mark of the process";
  ]

let per_layer =
  [
    m "graphgen.generate_s" "s" "lower" "setup_s on bfs_rgg, pagerank_ckpt";
    m "kamping.host_overhead_ratio" "ratio" "lower" "wall_s on bfs_rgg";
    m "kamping.extra_alloc_words_per_event" "words/event" "lower" "alloc_mwords on bfs_rgg";
    m "mpisim.calls" "count" "lower" "sim_time_s on all";
    m "mpisim.messages" "count" "lower" "sim_time_s on all; wall_s on bfs_rgg";
    m "mpisim.bytes" "B" "lower" "sim_time_s on all; wall_s on pagerank_ckpt";
    m "mpisim.host_ns_per_message" "ns" "lower" "wall_s on bfs_rgg, cg_fabric";
    m "mpisim.envelope_reuse_ratio" "ratio" "higher" "alloc_mwords on bfs_rgg";
    m "mpisim.wait_s" "s" "lower" "sim_time_s on all";
    m "mpisim.late_sender_s" "s" "lower" "sim_time_s on bfs_rgg";
    m "mpisim.coll_wait_s" "s" "lower" "sim_time_s on cg_fabric";
    m "mpisim.critical_path_s" "s" "lower" "equals sim_time_s (sanity check)";
    m "mpisim.checker_overhead_ratio" "ratio" "lower" "wall_s on all";
    m "coll_algos.selections" "count" "lower" "sim_time_s on cg_fabric";
    m "coll_algos.hier_selections" "count" "higher" "sim_time_s on cg_fabric";
    m "coll_algos.select_ns" "ns" "lower" "wall_s on cg_fabric";
    m "simnet.engine.events" "count" "lower" "wall_s on bfs_rgg, cg_fabric";
    m "simnet.engine.queue_peak" "count" "lower" "wall_s on bfs_rgg, cg_fabric";
    m "simnet.engine.fibers_peak" "count" "lower" "wall_s on bfs_rgg, cg_fabric";
    m "simnet.engine.events_per_s" "1/s" "higher" "wall_s on bfs_rgg, cg_fabric";
    m "simnet.engine.run_share" "ratio" "lower" "wall_s on bfs_rgg, cg_fabric";
    m "simnet.engine.ns_per_event" "ns" "lower" "wall_s on bfs_rgg, cg_fabric; not pagerank_ckpt";
    m "simnet.netmodel.transfer_ns" "ns" "lower" "wall_s on cg_fabric";
    m "serde.encode_ns_per_byte" "ns/B" "lower" "wall_s, alloc_mwords on pagerank_ckpt";
    m "serde.decode_ns_per_byte" "ns/B" "lower" "wall_s, alloc_mwords on pagerank_ckpt";
    m "ckpt.recovery_sim_s" "s" "lower" "sim_time_s on pagerank_ckpt";
    m "ckpt.recovery_host_s" "s" "lower" "wall_s on pagerank_ckpt";
    m "ckpt.resilience_overhead_ratio" "ratio" "lower" "sim_time_s on pagerank_ckpt";
    m "trace.overhead_ratio" "ratio" "lower" "none (end-to-end runs are untraced)";
    m "simnet.profile_overhead_ratio" "ratio" "lower" "none (end-to-end runs are unprofiled)";
  ]

(* ---- host measurement -------------------------------------------------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let fastest = List.fold_left Float.min infinity

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Words allocated on the host heap so far: minor plus direct major.
   [Gc.counters]' minor count lags the allocation pointer, so the minor
   part comes from [Gc.minor_words]. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let bit_equal a b = Array.length a = Array.length b && Array.for_all2 same_float a b

(* ---- one batch job ----------------------------------------------------- *)

type job = {
  setup_s : float;  (** job start to the first rank's first instruction *)
  gen_s : float;  (** of [setup_s], the time in [Generators.generate] *)
  wall_s : float;  (** [Mpi.run] call to its result *)
  alloc_words : float;  (** host words allocated inside [Mpi.run] *)
  sim_time : float;
  events : int;
  profile : Prof.snapshot;
  trace : Trace.Event.data option;
  error : string option;  (** why the output is wrong, if it is *)
}

(* [run_job ~gen ~exec ~check] times one job.  [gen ()] builds the inputs
   and returns them with the part of its time spent in graphgen;
   [exec inputs ~on_entry] runs the simulation, every rank calling
   [on_entry] first; [check inputs result] compares the output with a
   host-side oracle.  The heap is compacted first, so every job starts
   from the same heap state and no job collects its predecessor's
   garbage. *)
let run_job ~gen ~exec ~check =
  Gc.compact ();
  let first = ref 0.0 in
  let on_entry () = if !first = 0.0 then first := now () in
  let t0 = now () in
  let inputs, gen_s = gen () in
  let a0 = allocated_words () in
  let t1 = now () in
  match exec inputs ~on_entry with
  | res ->
      let t2 = now () in
      let a1 = allocated_words () in
      {
        setup_s = !first -. t0;
        gen_s;
        wall_s = t2 -. t1;
        alloc_words = a1 -. a0;
        sim_time = res.Mpi.sim_time;
        events = res.Mpi.events;
        profile = res.Mpi.profile;
        trace = res.Mpi.trace;
        error =
          (match check inputs res with
          | r -> r
          | exception e -> Some ("output check raised " ^ Printexc.to_string e));
      }
  | exception e ->
      {
        setup_s = nan;
        gen_s;
        wall_s = nan;
        alloc_words = nan;
        sim_time = nan;
        events = -1;
        profile = Prof.snapshot (Prof.create ());
        trace = None;
        error = Some ("Mpi.run raised " ^ Printexc.to_string e);
      }

let total_calls (p : Prof.snapshot) = List.fold_left (fun acc (_, n) -> acc + n) 0 p.calls

(* What a pure observer must leave unchanged: simulated time (bit for
   bit), events, messages, bytes and logical MPI calls. *)
let signature j =
  (Int64.bits_of_float j.sim_time, j.events, j.profile.messages, j.profile.bytes, total_calls j.profile)

let describe j =
  Printf.sprintf "sim %.9g s, %d events, %d messages, %d bytes, %d calls" j.sim_time j.events
    j.profile.messages j.profile.bytes (total_calls j.profile)

(* ---- workloads --------------------------------------------------------- *)

(* A variant's jobs, as the traced pass sees them: the fastest wall time,
   and what every job repeats. *)
type stats = { wall : float; alloc : float; sim : float; events : int }

type workload = {
  name : string;
  ranks : int;
  make_net : unit -> Net.t;  (** a fresh copy of the workload's network *)
  shard_floats : int option;  (** floats per checkpointed shard, if any *)
  job : trace:bool -> unit -> job;  (** the workload as users run it *)
  variants : (string * bool * (unit -> job)) list;
      (** differential jobs of the traced pass: name, whether the
          simulated run must equal the workload's, job *)
  derived : (string -> stats) -> (string * float) list;
      (** workload-specific per-layer metrics from the variants' stats
          (["base"] is the workload's own job) *)
}

let ok_results res = try Ok (Mpi.results_exn res) with e -> Error (Printexc.to_string e)

let gen_slices family ~comm_size ~global_n ~avg_degree ~seed =
  timed (fun () ->
      Array.init comm_size (fun rank ->
          Gen.generate family ~rank ~comm_size ~global_n ~avg_degree ~seed))

(* Sequential BFS over the generated slices: the hop distance of every
   vertex, [Bfs_common.undef] where unreachable. *)
let host_bfs (slices : G.t array) ~src =
  let g0 = slices.(0) in
  let dist = Array.make g0.G.global_n Apps.Bfs_common.undef in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let g = slices.(G.owner g0 v) in
    G.iter_neighbors g (v - g.G.first_vertex) (fun u ->
        if dist.(u) = Apps.Bfs_common.undef then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u queue
        end)
  done;
  dist

(* Fig. 10 BFS on a 2-D random geometric graph: high diameter, so many
   tiny alltoall/alltoallv rounds (latency-bound). *)
let bfs_rgg ~seed =
  let ranks = 64 and global_n = 1 lsl 13 and avg_degree = 8 and src = 0 in
  let gen () = gen_slices Gen.Rgg2d ~comm_size:ranks ~global_n ~avg_degree ~seed in
  let oracle = lazy (host_bfs (fst (gen ())) ~src) in
  let check graphs res =
    match ok_results res with
    | Error e -> Some ("a rank raised " ^ e)
    | Ok dists ->
        let got =
          Array.concat
            (Array.to_list (Array.mapi (fun r d -> Array.sub d 0 graphs.(r).G.local_n) dists))
        in
        if got = Lazy.force oracle then None else Some "distances differ from the sequential BFS"
  in
  let job bfs ~trace () =
    run_job ~gen ~check ~exec:(fun graphs ~on_entry ->
        Mpi.run ~trace ~ranks (fun c ->
            on_entry ();
            bfs c graphs.(Mpisim.Comm.rank c) ~src))
  in
  {
    name = "bfs_rgg";
    ranks;
    make_net = (fun () -> Net.create Net.default ~ranks);
    shard_floats = None;
    job = job Apps.Bfs_kamping.bfs;
    variants = [ ("plain", true, job Apps.Bfs_mpi.bfs ~trace:false) ];
    derived =
      (fun v ->
        let k = v "base" and p = v "plain" in
        let per_event s = s.alloc /. float_of_int s.events in
        [
          ("kamping.host_overhead_ratio", k.wall /. p.wall);
          ("kamping.extra_alloc_words_per_event", per_event k -. per_event p);
        ]);
  }

(* CG on a 16x16 process grid over the two-tier fabric: persistent halo
   channels plus allgather-based dot products through the hierarchical
   collective selection and tiered routing. *)
let cg_fabric ~seed =
  let px = 16 and py = 16 and iters = 3 in
  let ranks = px * py and spec = "two:16" in
  (* the seed picks the grid (within 1/16 of 384 cells a side) and the
     right-hand side *)
  let rng = Simnet.Rng.create (Int64.of_int seed) in
  let nx = 384 + Simnet.Rng.int rng 24 and ny = 384 + Simnet.Rng.int rng 24 in
  let gen () = (Net.fabric_of_spec ~ranks spec, 0.0) in
  let oracle = lazy (Apps.Cg_stencil.reference ~dims:[| px; py |] ~nx ~ny ~iters ~seed) in
  let check _ res =
    match ok_results res with
    | Error e -> Some ("a rank raised " ^ e)
    | Ok blocks ->
        let x_ref, rr_ref = Lazy.force oracle in
        let x = Array.make (nx * ny) nan in
        Array.iter
          (fun (b : Apps.Cg_stencil.result) ->
            for i = 0 to b.lx - 1 do
              Array.blit b.x (i * b.ly) x (((b.gi0 + i) * ny) + b.gj0) b.ly
            done)
          blocks;
        if not (bit_equal x x_ref) then Some "field differs from Cg_stencil.reference"
        else if not (Array.for_all (fun (b : Apps.Cg_stencil.result) -> same_float b.rr rr_ref) blocks)
        then Some "residual differs from Cg_stencil.reference"
        else None
  in
  let job ~trace () =
    run_job ~gen ~check ~exec:(fun fabric ~on_entry ->
        Mpi.run ~fabric ~trace ~ranks (fun c ->
            on_entry ();
            Apps.Cg_stencil.solve ~transport:Persistent (K.wrap c) ~dims:[| px; py |] ~nx ~ny ~iters
              ~seed))
  in
  {
    name = "cg_fabric";
    ranks;
    make_net = (fun () -> Net.create_fabric (Net.fabric_of_spec ~ranks spec) ~ranks);
    shard_floats = None;
    job;
    variants = [];
    derived = (fun _ -> []);
  }

(* Checkpointed PageRank on a skewed-degree graph with a deterministic
   rank kill: host time goes to snapshots, serde and ULFM recovery. *)
let pagerank_ckpt ~seed =
  let ranks = 16 and n_shards = 32 and global_n = 1 lsl 13 and avg_degree = 8 in
  let iters = 10 and alpha = 0.85 and family = Gen.Rhg in
  let kill = [ (5, 0.3e-3) ] in
  let gen () = gen_slices family ~comm_size:n_shards ~global_n ~avg_degree ~seed in
  let oracle = lazy (Apps.Pagerank.reference family ~global_n ~avg_degree ~seed ~alpha ~iters) in
  (* the survivors' shard blocks must cover every shard exactly once and
     assemble to the oracle *)
  let check ~survivors _ res =
    let scores = Array.make global_n nan in
    let seen = Array.make n_shards 0 and alive = ref 0 in
    Array.iter
      (function
        | Ok blocks ->
            incr alive;
            List.iter
              (fun (s, block) ->
                seen.(s) <- seen.(s) + 1;
                let first, _ = G.block_range ~global_n ~comm_size:n_shards s in
                Array.blit block 0 scores first (Array.length block))
              blocks
        | Error _ -> ())
      res.Mpi.results;
    if !alive <> survivors then Some (Printf.sprintf "%d survivors, expected %d" !alive survivors)
    else if Array.exists (fun n -> n <> 1) seen then Some "shards not covered exactly once"
    else if not (bit_equal scores (Lazy.force oracle)) then Some "scores differ from Pagerank.reference"
    else None
  in
  let resilient ?fail_at ~survivors ~trace () =
    run_job ~gen ~check:(check ~survivors) ~exec:(fun _ ~on_entry ->
        Mpi.run ?fail_at ~trace ~ranks (fun c ->
            on_entry ();
            Apps.Pagerank_resilient.run ~policy:(Ckpt.Schedule.Every_n 1) (K.wrap c) ~family
              ~n_shards ~global_n ~avg_degree ~seed ~alpha ~iters))
  in
  (* plain PageRank with one rank per shard: the resilience baseline *)
  let plain () =
    run_job ~gen
      ~check:(fun _ res ->
        match ok_results res with
        | Error e -> Some ("a rank raised " ^ e)
        | Ok blocks ->
            if bit_equal (Array.concat (Array.to_list blocks)) (Lazy.force oracle) then None
            else Some "plain scores differ from Pagerank.reference")
      ~exec:(fun graphs ~on_entry ->
        Mpi.run ~trace:false ~ranks:n_shards (fun c ->
            on_entry ();
            Apps.Pagerank.run (K.wrap c) graphs.(Mpisim.Comm.rank c) ~alpha ~iters))
  in
  {
    name = "pagerank_ckpt";
    ranks;
    make_net = (fun () -> Net.create Net.default ~ranks);
    shard_floats = Some (global_n / n_shards);
    job = resilient ~fail_at:kill ~survivors:(ranks - 1);
    variants =
      [ ("no_kill", false, resilient ?fail_at:None ~survivors:ranks ~trace:false); ("plain", false, plain) ];
    derived =
      (fun v ->
        let b = v "base" and nk = v "no_kill" and pl = v "plain" in
        [
          ("ckpt.recovery_sim_s", b.sim -. nk.sim);
          ("ckpt.recovery_host_s", b.wall -. nk.wall);
          ("ckpt.resilience_overhead_ratio", nk.sim /. pl.sim);
        ]);
  }

let workloads = [ ("bfs_rgg", bfs_rgg); ("cg_fabric", cg_fabric); ("pagerank_ckpt", pagerank_ckpt) ]

(* ---- probes: one layer's public API, driven with the workload's shape --- *)

let clamp n hi = max 1 (min n hi)

(* Engine: [queue] self-rescheduling callbacks keep the queue at the
   workload's peak until the workload's event count has run. *)
let probe_engine ~events ~queue =
  let e = Engine.create () in
  let budget = ref (clamp events 2_000_000) in
  let rec tick k () =
    decr budget;
    if !budget > 0 then
      Engine.schedule e ~delay:(1e-7 *. float_of_int (1 + (k * 7919 mod 97))) (tick (k + 1))
  in
  for i = 1 to clamp queue !budget do
    Engine.schedule e ~delay:(1e-9 *. float_of_int i) (tick i)
  done;
  let (), dt = timed (fun () -> Engine.run e) in
  dt *. 1e9 /. float_of_int (Engine.events_processed e)

(* Netmodel: the workload's message count at its mean size, spread over
   every rank pair of its fabric. *)
let probe_netmodel net ~ranks ~messages ~bytes =
  let n = clamp messages 1_000_000 in
  let clock = ref 0.0 in
  let (), dt =
    timed (fun () ->
        for i = 0 to n - 1 do
          let src = i mod ranks in
          let dst = (src + 1 + (i / ranks mod (ranks - 1))) mod ranks in
          let sent, _ = Net.transfer net ~now:!clock ~src ~dst ~bytes ~pack_factor:1.0 in
          clock := sent
        done)
  in
  dt *. 1e9 /. float_of_int n

type coll = Bcast | Allreduce | Allgather | Alltoall

let coll_of_call name =
  match List.hd (String.split_on_char '[' name) with
  | "MPI_Bcast" | "MPI_Ibcast" | "MPI_Bcast_init" -> Some Bcast
  | "MPI_Allreduce" | "MPI_Iallreduce" -> Some Allreduce
  | "MPI_Allgather" -> Some Allgather
  | "MPI_Alltoall" -> Some Alltoall
  | _ -> None

let is_hierarchical name =
  List.exists (fun algo -> String.ends_with ~suffix:("[" ^ algo ^ "]") name) [ "node_leader"; "smp" ]

(* Collective selection: the workload's own mix of collectives (scaled to
   at most 200k calls) at its mean message size, on its network. *)
let probe_select net ~ranks ~algo_calls ~bytes =
  let t = Select.create () in
  let group = Array.init ranks Fun.id in
  let params = Net.params_for_group net group and hier = Net.hier_for_group net group in
  let mix = List.filter_map (fun (n, c) -> Option.map (fun k -> (k, c)) (coll_of_call n)) algo_calls in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 mix in
  let scale = if total > 200_000 then 200_000.0 /. float_of_int total else 1.0 in
  let mix = List.map (fun (k, c) -> (k, clamp (int_of_float (float_of_int c *. scale)) c)) mix in
  let calls = List.fold_left (fun acc (_, c) -> acc + c) 0 mix in
  let p = ranks in
  let (), dt =
    timed (fun () ->
        List.iter
          (fun (kind, count) ->
            for _ = 1 to count do
              match kind with
              | Bcast -> ignore (Sys.opaque_identity (Select.bcast ?hier t ~cid:0 params ~p ~bytes))
              | Allreduce ->
                  ignore
                    (Sys.opaque_identity
                       (Select.allreduce ?hier t ~cid:0 params ~p ~bytes ~elems:(max 1 (bytes / 8))
                          ~op_cost:1e-9 ~commutative:true))
              | Allgather -> ignore (Sys.opaque_identity (Select.allgather t ~cid:0 params ~p ~bytes))
              | Alltoall -> ignore (Sys.opaque_identity (Select.alltoall ?hier t ~cid:0 params ~p ~bytes))
            done)
          mix)
  in
  if calls = 0 then 0.0 else dt *. 1e9 /. float_of_int calls

(* Serde: [count] round trips of a (float array, iteration) pair — the
   shape of a checkpointed shard — with [floats] elements. *)
let probe_serde ~count ~floats =
  let codec = Codec.(pair (array float) int) in
  let v = (Array.init floats (fun i -> float_of_int i *. 0.5), 7) in
  let n = clamp count (4_000_000 / floats) in
  let wire = ref (Codec.encode codec v) in
  let (), t_enc =
    timed (fun () ->
        for _ = 1 to n do
          wire := Codec.encode codec v
        done)
  in
  let (), t_dec =
    timed (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Codec.decode codec !wire))
        done)
  in
  let total = float_of_int (n * Bytes.length !wire) in
  (t_enc *. 1e9 /. total, t_dec *. 1e9 /. total)

(* ---- the two passes ------------------------------------------------------ *)

(* Every job attempted, and the gates that failed; both end in the
   result line. *)
let attempted = ref 0
let failed = ref 0
let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let attempt name f =
  incr attempted;
  let j = f () in
  (match j.error with
  | Some e ->
      incr failed;
      problem "%s job: %s" name e
  | None -> ());
  j

(* The pure-observer and determinism gate: every job in [jobs] must
   simulate exactly like [reference]. *)
let same_simulation ~what reference jobs =
  List.iter
    (fun j ->
      if signature j <> signature reference then
        problem "%s: %s, expected %s" what (describe j) (describe reference))
    jobs

let min_jobs = 5

(* The end-to-end metrics of a list of identical untraced jobs.  Load
   from other tenants of a shared host only ever slows a job down, often
   for many seconds at a time, so the host times are those of the run's
   fastest job; the median is printed alongside. *)
let end_to_end_metrics jobs =
  let wall = List.map (fun j -> j.wall_s) jobs and setup = List.map (fun j -> j.setup_s) jobs in
  Printf.printf "  %d jobs: wall_s median %.4f, max %.4f; setup_s median %.6f, max %.6f\n"
    (List.length jobs) (median wall) (List.fold_left Float.max 0.0 wall) (median setup)
    (List.fold_left Float.max 0.0 setup);
  [
    ("wall_s", fastest wall);
    ("setup_s", fastest setup);
    ("sim_time_s", (List.hd jobs).sim_time);
    ("alloc_mwords", (List.hd jobs).alloc_words /. 1e6);
    ("peak_rss_mb", float_of_int (Profile.peak_rss_kb ()) /. 1024.0);
  ]

let print_metrics catalogue values =
  List.iter
    (fun ({ name; unit; _ } : metric) ->
      Printf.printf "  %-38s %14.6g %s\n" name (List.assoc name values) unit)
    catalogue

(* Untraced jobs at the default checker level, after one warm-up job, until
   [seconds] have passed (at least [min_jobs]). *)
let end_to_end_pass w ~seconds =
  let warm = attempt w.name (w.job ~trace:false) in
  let t0 = now () in
  let rec loop acc n =
    if n >= min_jobs && now () -. t0 >= seconds then List.rev acc
    else loop (attempt w.name (w.job ~trace:false) :: acc) (n + 1)
  in
  let jobs = loop [] 0 in
  same_simulation ~what:"repeat" warm jobs;
  let allocs = List.sort_uniq compare (List.map (fun j -> j.alloc_words) jobs) in
  if List.length allocs > 1 then
    problem "allocation differs across repeats: %s"
      (String.concat ", " (List.map (Printf.sprintf "%.0f") allocs));
  Printf.printf "%s: %s\n" w.name (describe warm);
  Printf.printf "%s: %d jobs in %.1f s\n" w.name (List.length jobs) (now () -. t0);
  end_to_end_metrics jobs

type analysis = { wait : float; late_sender : float; coll_wait : float; critical : float }

let analyze data =
  let r = Trace.Analysis.analyze data in
  let sum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 r.Trace.Analysis.per_rank in
  {
    wait = sum (fun s -> s.Trace.Analysis.waiting);
    late_sender = sum (fun s -> s.Trace.Analysis.late_sender);
    coll_wait = sum (fun s -> s.Trace.Analysis.coll_wait);
    critical = Trace.Analysis.critical_length r;
  }

(* Interleaved rounds of the workload's job under each observer and of its
   differential variants, then the snapshots and the probes. *)
let per_layer_pass w ~seconds =
  let base = attempt w.name (w.job ~trace:false) in
  let traced_analysis = ref None and fine = ref None in
  let traced () =
    let j = w.job ~trace:true () in
    if !traced_analysis = None then traced_analysis := Option.map analyze j.trace;
    { j with trace = None }
  in
  let profiled () =
    Profile.reset ();
    let j = Profile.with_level Fine (w.job ~trace:false) in
    if !fine = None then fine := Some (Profile.snapshot (), j.wall_s);
    j
  in
  let modes =
    [
      ("base", true, w.job ~trace:false);
      ("checker_off", true, fun () -> Checker.with_level Off (w.job ~trace:false));
      ("checker_comm", true, fun () -> Checker.with_level Communication (w.job ~trace:false));
      ("traced", true, traced);
      ("profiled", true, profiled);
    ]
    @ w.variants
  in
  let runs = Hashtbl.create 8 in
  let t0 = now () in
  let round = ref 0 in
  while !round < 2 || (!round < 5 && now () -. t0 < seconds) do
    incr round;
    List.iter
      (fun (name, _, f) ->
        let j = attempt (w.name ^ "/" ^ name) f in
        Hashtbl.replace runs name (j :: Option.value ~default:[] (Hashtbl.find_opt runs name)))
      modes
  done;
  Printf.printf "%s: %d interleaved rounds in %.1f s\n" w.name !round (now () -. t0);
  List.iter
    (fun (name, must_match, _) ->
      let jobs = Hashtbl.find runs name in
      if must_match then same_simulation ~what:name base jobs;
      Printf.printf "  %-12s %s%s\n" name (describe (List.hd jobs))
        (if must_match then ", must equal base" else ""))
    modes;
  let stats name =
    let jobs = Hashtbl.find runs name in
    let j = List.hd jobs in
    { wall = fastest (List.map (fun j -> j.wall_s) jobs); alloc = j.alloc_words; sim = j.sim_time; events = j.events }
  in
  let b = stats "base" in
  let prof = base.profile in
  let messages = prof.Prof.messages and bytes = prof.Prof.bytes in
  let mean_bytes = if messages = 0 then 8 else max 1 (bytes / messages) in
  let a =
    match !traced_analysis with
    | Some a -> a
    | None ->
        problem "traced job recorded no trace";
        { wait = nan; late_sender = nan; coll_wait = nan; critical = nan }
  in
  if not (Float.abs (a.critical -. base.sim_time) <= 1e-9 *. base.sim_time) then
    problem "critical path %.12g s differs from sim_time %.12g s" a.critical base.sim_time;
  let fine_snapshot, fine_wall =
    match !fine with Some f -> f | None -> (Profile.snapshot (), nan)
  in
  let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name fine_snapshot.counters)) in
  let engine_run_s =
    match List.assoc_opt "engine.run" fine_snapshot.ops with
    | Some s -> float_of_int s.Profile.total_ns /. 1e9
    | None -> nan
  in
  let made = counter "mpi.envelopes_made" and reused = counter "mpi.envelopes_reused" in
  let selections = List.fold_left (fun acc (_, n) -> acc + n) 0 prof.algo_calls in
  let hier =
    List.fold_left (fun acc (name, n) -> if is_hierarchical name then acc + n else acc) 0 prof.algo_calls
  in
  let encode_ns, decode_ns =
    probe_serde ~count:messages
      ~floats:(match w.shard_floats with Some f -> f | None -> max 1 (mean_bytes / 8))
  in
  let generic =
    [
      ("graphgen.generate_s", fastest (List.map (fun j -> j.gen_s) (Hashtbl.find runs "base")));
      ("mpisim.calls", float_of_int (total_calls prof));
      ("mpisim.messages", float_of_int messages);
      ("mpisim.bytes", float_of_int bytes);
      ("mpisim.host_ns_per_message", b.wall *. 1e9 /. float_of_int (max 1 messages));
      ("mpisim.envelope_reuse_ratio", if made +. reused = 0.0 then 0.0 else reused /. (made +. reused));
      ("mpisim.wait_s", a.wait);
      ("mpisim.late_sender_s", a.late_sender);
      ("mpisim.coll_wait_s", a.coll_wait);
      ("mpisim.critical_path_s", a.critical);
      ("mpisim.checker_overhead_ratio", (stats "checker_comm").wall /. (stats "checker_off").wall);
      ("coll_algos.selections", float_of_int selections);
      ("coll_algos.hier_selections", float_of_int hier);
      ( "coll_algos.select_ns",
        probe_select (w.make_net ()) ~ranks:w.ranks ~algo_calls:prof.algo_calls ~bytes:mean_bytes );
      ("simnet.engine.events", float_of_int base.events);
      ("simnet.engine.queue_peak", counter "engine.queue_peak");
      ("simnet.engine.fibers_peak", counter "engine.fibers_tracked");
      ("simnet.engine.events_per_s", float_of_int base.events /. b.wall);
      ("simnet.engine.run_share", engine_run_s /. fine_wall);
      ( "simnet.engine.ns_per_event",
        probe_engine ~events:base.events ~queue:(int_of_float (counter "engine.queue_peak")) );
      ( "simnet.netmodel.transfer_ns",
        probe_netmodel (w.make_net ()) ~ranks:w.ranks ~messages ~bytes:mean_bytes );
      ("serde.encode_ns_per_byte", encode_ns);
      ("serde.decode_ns_per_byte", decode_ns);
      ("trace.overhead_ratio", (stats "traced").wall /. b.wall);
      ("simnet.profile_overhead_ratio", (stats "profiled").wall /. b.wall);
    ]
  in
  let specific = w.derived stats in
  Printf.printf "end-to-end, from this pass's untraced jobs (peak RSS includes the traced ones):\n";
  print_metrics end_to_end (end_to_end_metrics (Hashtbl.find runs "base"));
  Printf.printf "per layer:\n";
  (* metrics a workload does not exercise read 0 *)
  List.map
    (fun ({ name; _ } : metric) ->
      match List.assoc_opt name specific with
      | Some v -> (name, v)
      | None -> (name, Option.value ~default:0.0 (List.assoc_opt name generic)))
    per_layer

(* ---- output ---------------------------------------------------------------- *)

let json_string s = Printf.sprintf "%S" s

let metric_json catalogue values =
  String.concat ", "
    (List.map
       (fun ({ name; unit; _ } : metric) ->
         let v = List.assoc name values in
         let v =
           if Float.is_finite v then v
           else begin
             problem "%s is not finite" name;
             -1.0
           end
         in
         Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) v (json_string unit))
       catalogue)

let print_catalogue () =
  let entry ({ name; unit; better; moves } : metric) =
    Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s, \"moves\": %s}" (json_string name)
      (json_string unit) (json_string better) (json_string moves)
  in
  Printf.printf "{\"end_to_end\": [%s], \"per_layer\": [%s]}\n"
    (String.concat ", " (List.map entry end_to_end))
    (String.concat ", " (List.map entry per_layer))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let list = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  bfs_rgg, cg_fabric or pagerank_ckpt");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--list-metrics", Arg.Set list, " print the metric catalogue as JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !list then print_catalogue ()
  else begin
    let make =
      match List.assoc_opt !workload workloads with
      | Some make -> make
      | None ->
          prerr_endline ("unknown workload " ^ !workload);
          exit 2
    in
    (* the defaults a user gets, whatever the environment says *)
    Checker.set_level Light;
    Profile.set_level Off;
    Unix.putenv "MPISIM_TOPOLOGY" "";
    let w = make ~seed:!seed in
    let catalogue, values =
      if !trace = 0 then (end_to_end, end_to_end_pass w ~seconds:!seconds)
      else (per_layer, per_layer_pass w ~seconds:!seconds)
    in
    print_metrics catalogue values;
    Printf.printf "  %-38s %14.6g ratio (%d of %d jobs)\n" "failed_ratio"
      (float_of_int !failed /. float_of_int (max 1 !attempted))
      !failed !attempted;
    let metrics = metric_json catalogue values in
    List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev !problems);
    let correct = !problems = [] in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
      !attempted !failed metrics;
    exit (if correct then 0 else 1)
  end
