module Workload = Workload
module Shard_map = Shard_map
module Cache = Cache
module Metrics = Metrics
module K = Kamping.Comm
module D = Mpisim.Datatype
module Op = Mpisim.Op
module Agg = Kamping_plugins.Aggregator
module V = Ds.Vec

type config = {
  n_keys : int;
  n_shards : int;
  zipf_s : float;
  rate : float;
  write_ratio : float;
  duration : float;
  epoch : float;
  tick : float;
  batch_threshold : int;
  flush_interval : float;
  cache_capacity : int;
  rebalance : bool;
  persistent : bool;
  seed : int;
}

let default =
  {
    n_keys = 256;
    n_shards = 12;
    zipf_s = 1.2;
    rate = 1.5e5;
    write_ratio = 0.1;
    duration = 2e-3;
    epoch = 0.5e-3;
    tick = 10e-6;
    batch_threshold = 16;
    flush_interval = 25e-6;
    cache_capacity = 0;
    rebalance = false;
    persistent = false;
    seed = 42;
  }

let validate cfg =
  if cfg.n_keys <= 0 then Mpisim.Errors.usage "Serve: n_keys must be positive";
  if cfg.n_shards <= 0 || cfg.n_shards > cfg.n_keys then
    Mpisim.Errors.usage "Serve: n_shards must be in [1, n_keys]";
  if cfg.duration <= 0.0 then Mpisim.Errors.usage "Serve: duration must be positive";
  if cfg.epoch <= 0.0 then Mpisim.Errors.usage "Serve: epoch must be positive";
  if cfg.tick <= 0.0 then Mpisim.Errors.usage "Serve: tick must be positive";
  if cfg.batch_threshold < 1 then Mpisim.Errors.usage "Serve: batch_threshold must be >= 1";
  if cfg.flush_interval <= 0.0 then Mpisim.Errors.usage "Serve: flush_interval must be positive"

type rank_report = {
  issued : int;
  completed : int;
  cache_hits : int;
  cache_lookups : int;
  latencies : float array;
  imbalance_before : float;
  imbalance_after : float;
  recoveries : int;
  stores : (int * (int * int) list) list;
}

type report = {
  ranks : int;
  issued : int;
  completed : int;
  throughput : float;
  p50 : float;
  p99 : float;
  max_latency : float;
  hit_rate : float;
  imbalance_before : float;
  imbalance_after : float;
  recoveries : int;
  store_digest : int;
  sim_time : float;
}

let n_epochs cfg = Int.max 1 (int_of_float (Float.ceil (cfg.duration /. cfg.epoch)))

(* The phase boundary: measure load (and optionally rebalance) after this
   many epochs.  [None] when the run is too short to have two phases. *)
let boundary cfg =
  let n = n_epochs cfg in
  if n >= 2 then Some (n / 2) else None

(* {2 Wire protocol}

   One item type serves both aggregators: [((kind, key), (id, payload))].
   [id] is a request id in the issuing client's namespace; replies are
   routed by the aggregator's [~src], so ids never collide across ranks. *)

type wire = (int * int) * (int * int)

let wire_dt : wire D.t = D.pair (D.pair D.int D.int) (D.pair D.int D.int)
let k_get = 0
let k_put = 1
let k_get_reply = 2
let k_put_ack = 3
let k_invalidate = 4
let req_tag = 0x5e1
let rep_tag = 0x5e2

(* Fixed per-block service cost (the interrupt/dispatch analogue of a real
   server's per-packet overhead), charged by the receiving handler on top
   of the per-item hash cost.  This is the cost request batching
   amortizes: at threshold 1 the Zipf-head server pays it per request and
   saturates; larger blocks spread it over their items. *)
let block_overhead = 1.0e-6

(* {2 Restartable state}

   Everything a shard needs to move — between ranks at a rebalance, or
   from a checkpoint at recovery — is one value: its id, its store
   partition and its stream cursor.  [shard_codec] is the one encoding
   both paths use. *)

type shard = {
  id : int;
  store : (int, int) Hashtbl.t;  (* key -> value *)
  stream : Workload.t;
}

let new_shard cfg id =
  {
    id;
    store = Hashtbl.create 32;
    stream =
      Workload.create ~n_keys:cfg.n_keys ~zipf_s:cfg.zipf_s ~rate:cfg.rate
        ~write_ratio:cfg.write_ratio ~seed:cfg.seed ~stream:id;
  }

let sorted_kvs tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let shard_codec cfg =
  Serde.Codec.conv ~name:"serve-shard"
    (fun sh -> (sh.id, sorted_kvs sh.store, Workload.pos sh.stream))
    (fun (id, kvs, pos) ->
      let sh = new_shard cfg id in
      List.iter (fun (k, v) -> Hashtbl.replace sh.store k v) kvs;
      Workload.seek sh.stream pos;
      sh)
    Serde.Codec.(triple int (list (pair int int)) int)

(* {2 A serving session}

   Per-attempt structures: the owned shards by id, aggregators, cache,
   sharer directory, metrics and in-flight bookkeeping.  Rebuilt from
   scratch after a recovery (the quiescent epoch boundary guarantees
   nothing in-flight was lost). *)

type session = {
  kc : K.t;
  cfg : config;
  shards : (int, shard) Hashtbl.t;  (* owned shard id -> its state *)
  map : Shard_map.t;
  cache : Cache.t;
  lat : Metrics.t;
  outstanding : (int, float) Hashtbl.t;  (* request id -> absolute arrival time *)
  directory : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* key -> sharer ranks *)
  shard_loads : int array;  (* requests applied per shard since phase start *)
  next_id : int ref;
  completed : int ref;
  req_agg : wire Agg.t;
  rep_agg : wire Agg.t;
}

let make_session cfg owned kc map =
  let shards = Hashtbl.create 16 in
  List.iter (fun sh -> Hashtbl.replace shards sh.id sh) owned;
  let caching = cfg.cache_capacity > 0 in
  let cache = Cache.create ~capacity:cfg.cache_capacity () in
  let lat = Metrics.create () in
  let outstanding = Hashtbl.create 64 in
  let directory = Hashtbl.create 64 in
  let shard_loads = Array.make cfg.n_shards 0 in
  let completed = ref 0 in
  (* Per-block service time, paid up front by the receiving fiber so that
     queueing delay is visible in both sim_time and reply latency. *)
  let serve_block block =
    K.compute kc (block_overhead +. Kamping.Costs.hash_ops (V.length block))
  in
  (* Client side: absorb replies.  Never touches an aggregator, so it is
     safe to run from inside the server handler's [rep_agg] sends. *)
  let rep_handler ~src:_ block =
    serve_block block;
    V.iter
      (fun ((kind, key), (id, payload)) ->
        if kind = k_invalidate then Cache.invalidate cache key
        else begin
          (match Hashtbl.find_opt outstanding id with
          | Some arrival ->
              Hashtbl.remove outstanding id;
              incr completed;
              Metrics.record lat (K.now kc -. arrival)
          | None -> Mpisim.Errors.usage "Serve: reply for unknown request %d" id);
          if kind = k_get_reply && caching then Cache.insert cache ~key ~value:payload
        end)
      block
  in
  let rep_agg =
    Agg.create ~threshold:cfg.batch_threshold ~tag:rep_tag ~persistent:cfg.persistent kc wire_dt
      ~handler:rep_handler
  in
  (* Server side: apply operations on owned shards, answer via [rep_agg]
     (a different aggregator, so no reentrance). *)
  let req_handler ~src block =
    serve_block block;
    V.iter
      (fun ((kind, key), (id, payload)) ->
        let shard = Shard_map.shard_of_key map key in
        shard_loads.(shard) <- shard_loads.(shard) + 1;
        let store = (Hashtbl.find shards shard).store in
        if kind = k_get then begin
          let v = Option.value (Hashtbl.find_opt store key) ~default:0 in
          if caching then begin
            let sharers =
              match Hashtbl.find_opt directory key with
              | Some s -> s
              | None ->
                  let s = Hashtbl.create 4 in
                  Hashtbl.replace directory key s;
                  s
            in
            Hashtbl.replace sharers src ()
          end;
          Agg.send rep_agg ~dst:src ((k_get_reply, key), (id, v))
        end
        else if kind = k_put then begin
          let v = Option.value (Hashtbl.find_opt store key) ~default:0 in
          Hashtbl.replace store key (v + payload);
          (match Hashtbl.find_opt directory key with
          | Some sharers ->
              Hashtbl.iter
                (fun rank () -> Agg.send rep_agg ~dst:rank ((k_invalidate, key), (0, 0)))
                sharers;
              Hashtbl.remove directory key
          | None -> ());
          Agg.send rep_agg ~dst:src ((k_put_ack, key), (id, 0))
        end
        else Mpisim.Errors.usage "Serve: unexpected request kind %d" kind)
      block
  in
  let req_agg =
    Agg.create ~threshold:cfg.batch_threshold ~tag:req_tag ~persistent:cfg.persistent kc wire_dt
      ~handler:req_handler
  in
  {
    kc;
    cfg;
    shards;
    map;
    cache;
    lat;
    outstanding;
    directory;
    shard_loads;
    next_id = ref 0;
    completed;
    req_agg;
    rep_agg;
  }

(* {2 The epoch loop}

   Each epoch covers workload time [e_lo, e_hi) and is anchored at the
   simulated wall clock of its own start ([wall0]), so a recovered
   attempt restarts an epoch with a fresh anchor and identical semantics:
   a request due at workload offset [r.at] is issued once the epoch's
   elapsed wall time reaches [r.at - e_lo], and its latency is measured
   from that arrival instant to its reply.  The final drain runs with
   [elapsed >= len], so every request with [at < e_hi] is issued before
   the two [finish] calls quiesce the round. *)

let run_epoch sess e =
  let cfg = sess.cfg in
  let kc = sess.kc in
  let e_lo = cfg.epoch *. float_of_int e in
  let e_hi = if e = n_epochs cfg - 1 then cfg.duration else cfg.epoch *. float_of_int (e + 1) in
  let len = e_hi -. e_lo in
  let wall0 = K.now kc in
  let last_flush = ref wall0 in
  let me = K.rank kc in
  let streams =
    List.map (fun s -> (Hashtbl.find sess.shards s).stream) (Shard_map.shards_of sess.map me)
  in
  let issue r =
    let open Workload in
    let arrival = wall0 +. (r.at -. e_lo) in
    match r.op with
    | Get when Cache.find sess.cache r.key <> None ->
        (* served from the local replica: complete without any traffic *)
        incr sess.completed;
        Metrics.record sess.lat (K.now kc -. arrival)
    | Get | Put _ ->
        let id = !(sess.next_id) in
        incr sess.next_id;
        Hashtbl.replace sess.outstanding id arrival;
        let item =
          match r.op with
          | Get -> ((k_get, r.key), (id, 0))
          | Put d -> ((k_put, r.key), (id, d))
        in
        Agg.send sess.req_agg ~dst:(Shard_map.owner_of_key sess.map r.key) item
  in
  let drain vnow =
    List.iter
      (fun w ->
        let rec go () =
          match Workload.next_due w ~now:vnow ~limit:e_hi with
          | Some r ->
              issue r;
              go ()
          | None -> ()
        in
        go ())
      streams
  in
  let running = ref true in
  while !running do
    Agg.poll sess.req_agg;
    Agg.poll sess.rep_agg;
    let elapsed = K.now kc -. wall0 in
    drain (e_lo +. elapsed);
    if K.now kc -. !last_flush >= cfg.flush_interval then begin
      Agg.flush sess.req_agg;
      Agg.flush sess.rep_agg;
      last_flush := K.now kc
    end;
    if elapsed >= len then running := false else K.compute kc cfg.tick
  done;
  Agg.finish sess.req_agg;
  Agg.finish sess.rep_agg;
  if Hashtbl.length sess.outstanding <> 0 then
    Mpisim.Errors.usage "Serve: %d requests outstanding after quiescence"
      (Hashtbl.length sess.outstanding)

(* {2 Phase accounting and rebalancing} *)

let measure_imbalance sess =
  let kc = sess.kc in
  let global =
    K.allreduce kc D.int Op.int_sum ~send_buf:(V.of_array sess.shard_loads) |> V.to_array
  in
  let loads = Shard_map.server_loads sess.map ~shard_loads:global ~p:(K.size kc) in
  (Shard_map.imbalance loads, global)

(* Migrate every shard whose LPT placement differs from the current one:
   one collective serialized exchange of [shard_codec] values, the
   checkpoint's own encoding, so migration and recovery share one
   serialization path. *)
let do_rebalance sess global_loads =
  let kc = sess.kc in
  let me = K.rank kc and p = K.size kc in
  let plan = Shard_map.lpt_plan sess.map ~shard_loads:global_loads ~p in
  let outgoing = Array.make p [] in
  for s = Shard_map.n_shards sess.map - 1 downto 0 do
    if Shard_map.owner_of_shard sess.map s = me && plan.(s) <> me then begin
      outgoing.(plan.(s)) <- Hashtbl.find sess.shards s :: outgoing.(plan.(s));
      Hashtbl.remove sess.shards s
    end
  done;
  K.alltoallv_serialized kc (Serde.Codec.list (shard_codec sess.cfg)) outgoing
  |> Array.iter (List.iter (fun sh -> Hashtbl.replace sess.shards sh.id sh));
  Shard_map.apply_plan sess.map plan;
  (* placement changed: cached values and the sharer directory keep their
     meaning, but we reset them so both phases start from the same cold
     state and the imbalance comparison is clean *)
  Cache.clear sess.cache;
  Hashtbl.reset sess.directory

let finalize sess ~recoveries ~imbalance_before ~imbalance_after =
  let me = K.rank sess.kc in
  let owned = List.map (Hashtbl.find sess.shards) (Shard_map.shards_of sess.map me) in
  {
    issued = List.fold_left (fun acc sh -> acc + Workload.pos sh.stream) 0 owned;
    completed = !(sess.completed);
    cache_hits = Cache.hits sess.cache;
    cache_lookups = Cache.lookups sess.cache;
    latencies = Metrics.samples sess.lat;
    imbalance_before;
    imbalance_after;
    recoveries;
    stores = List.map (fun sh -> (sh.id, sorted_kvs sh.store)) owned;
  }

(* {2 Drivers} *)

let body cfg comm =
  validate cfg;
  let kc = K.wrap comm in
  let p = K.size kc in
  let map = Shard_map.create ~n_shards:cfg.n_shards ~n_keys:cfg.n_keys ~p in
  let owned = List.map (new_shard cfg) (Shard_map.shards_of map (K.rank kc)) in
  let sess = make_session cfg owned kc map in
  let imb_before = ref Float.nan in
  let n = n_epochs cfg in
  for e = 0 to n - 1 do
    run_epoch sess e;
    if boundary cfg = Some (e + 1) then begin
      let imb, global = measure_imbalance sess in
      imb_before := imb;
      if cfg.rebalance then do_rebalance sess global;
      Array.fill sess.shard_loads 0 cfg.n_shards 0
    end
  done;
  let imb_after, _ = measure_imbalance sess in
  if Float.is_nan !imb_before then imb_before := imb_after;
  (* quiescent (last epoch finished): retire the standing channels so the
     checker's persistent-leak scan stays clean *)
  Agg.close sess.req_agg;
  Agg.close sess.rep_agg;
  finalize sess ~recoveries:0 ~imbalance_before:!imb_before ~imbalance_after:imb_after

(* One epoch per round of [Ckpt.run_sharded]: the round counter is the
   epoch counter, checkpointed next to every shard. *)
let resilient_body ?policy cfg comm =
  validate cfg;
  let report = ref None in
  let (_ : (int * shard) list) =
    Ckpt.run_sharded ?policy ~name:"serve" (shard_codec cfg)
      ~n_shards:cfg.n_shards (K.wrap comm) ~init:(new_shard cfg)
      (fun ctx owned ->
        let map =
          Shard_map.of_owner ~n_keys:cfg.n_keys
            (Array.init cfg.n_shards (fun s -> Ckpt.owner_of ctx s))
        in
        let sess = make_session cfg (List.map snd owned) (Ckpt.comm ctx) map in
        fun ~round ->
          if round < n_epochs cfg then begin
            run_epoch sess round;
            true
          end
          else begin
            Agg.close sess.req_agg;
            Agg.close sess.rep_agg;
            report :=
              Some
                (finalize sess ~recoveries:(Ckpt.recoveries ctx) ~imbalance_before:Float.nan
                   ~imbalance_after:Float.nan);
            false
          end)
  in
  Option.get !report

let digest_of_stores stores =
  let mix h x = ((h * 1000003) lxor x) land max_int in
  List.fold_left
    (fun h (s, kvs) ->
      List.fold_left (fun h (k, v) -> mix (mix h k) v) (mix h s) kvs)
    0x5eed stores

let summarize cfg ~ranks ~sim_time results =
  let reports : rank_report list =
    Array.to_list results |> List.filter_map (function Ok r -> Some r | Error _ -> None)
  in
  if reports = [] then Mpisim.Errors.usage "Serve: no rank survived";
  let by_shard = Hashtbl.create cfg.n_shards in
  List.iter
    (fun (r : rank_report) ->
      List.iter
        (fun (s, kvs) ->
          if Hashtbl.mem by_shard s then
            Mpisim.Errors.usage "Serve: shard %d reported by two ranks" s;
          Hashtbl.replace by_shard s kvs)
        r.stores)
    reports;
  let stores =
    List.init cfg.n_shards (fun s ->
        match Hashtbl.find_opt by_shard s with
        | Some kvs -> (s, kvs)
        | None -> Mpisim.Errors.usage "Serve: shard %d not reported by any rank" s)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let lats = Array.concat (List.map (fun r -> r.latencies) reports) in
  let completed = sum (fun r -> r.completed) in
  let lookups = sum (fun r -> r.cache_lookups) in
  let first = List.hd reports in
  {
    ranks;
    issued = sum (fun r -> r.issued);
    completed;
    throughput = (if sim_time > 0.0 then float_of_int completed /. sim_time else 0.0);
    p50 = Metrics.percentile lats 0.5;
    p99 = Metrics.percentile lats 0.99;
    max_latency = Array.fold_left Float.max 0.0 lats;
    hit_rate =
      (if lookups = 0 then 0.0 else float_of_int (sum (fun r -> r.cache_hits)) /. float_of_int lookups);
    imbalance_before = first.imbalance_before;
    imbalance_after = first.imbalance_after;
    recoveries =
      List.fold_left (fun acc (r : rank_report) -> Int.max acc r.recoveries) 0 reports;
    store_digest = digest_of_stores stores;
    sim_time;
  }

let run ?net ?(ranks = 6) cfg =
  let res = Mpisim.Mpi.run ?net ~ranks (fun comm -> body cfg comm) in
  Array.iter (function Error e -> raise e | Ok _ -> ()) res.Mpisim.Mpi.results;
  summarize cfg ~ranks ~sim_time:res.Mpisim.Mpi.sim_time res.Mpisim.Mpi.results

(* {2 Host-side oracle} *)

let iter_requests cfg f =
  validate cfg;
  for stream = 0 to cfg.n_shards - 1 do
    let w =
      Workload.create ~n_keys:cfg.n_keys ~zipf_s:cfg.zipf_s ~rate:cfg.rate
        ~write_ratio:cfg.write_ratio ~seed:cfg.seed ~stream
    in
    let rec go () =
      match Workload.next_due w ~now:Float.infinity ~limit:cfg.duration with
      | Some r ->
          f r;
          go ()
      | None -> ()
    in
    go ()
  done

let expected_stores cfg =
  let store = Hashtbl.create cfg.n_keys in
  iter_requests cfg (fun r ->
      match r.Workload.op with
      | Workload.Get -> ()
      | Workload.Put d ->
          Hashtbl.replace store r.Workload.key
            (Option.value (Hashtbl.find_opt store r.Workload.key) ~default:0 + d));
  let by_shard = Array.make cfg.n_shards [] in
  Hashtbl.iter
    (fun k v ->
      let s = k * cfg.n_shards / cfg.n_keys in
      by_shard.(s) <- (k, v) :: by_shard.(s))
    store;
  List.init cfg.n_shards (fun s -> (s, List.sort compare by_shard.(s)))

let expected_issued cfg =
  let n = ref 0 in
  iter_requests cfg (fun _ -> incr n);
  !n

let expected_store_digest cfg = digest_of_stores (expected_stores cfg)
