(* Tumbling-window top-k / count-distinct over the aggregator.  All
   state is integral and the merge is sorted by shard, so the window
   results are independent of rank count, schedule, transport batching
   and failures — and equal to the sequential reference. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec
module A = Kamping_plugins.Aggregator

type cfg = {
  n_shards : int;
  windows : int;
  events_per_shard : int;
  n_keys : int;
  n_values : int;
  topk : int;
  threshold : int;
  flush_every : float;
  seed : int;
}

type window_result = { top : (int * int) list; distinct : int }

let check_cfg cfg =
  if cfg.n_shards <= 0 || cfg.windows < 0 || cfg.topk <= 0 then
    Mpisim.Errors.usage "Stream_analytics: invalid shard/window/topk configuration";
  if cfg.n_keys <= 0 || cfg.n_keys > 65536 || cfg.n_values <= 0 || cfg.n_values > 65536 then
    Mpisim.Errors.usage "Stream_analytics: key and value spaces must be in 1..65536"

(* One aggregator item: (window, kind, payload) packed into an int.
   kind 0 = count item keyed by key, kind 1 = distinct item keyed by
   value. *)
let pack ~window ~kind ~payload = (((window * 2) + kind) * 65536) + payload

let unpack x =
  let payload = x mod 65536 in
  let t = x / 65536 in
  (t / 2, t land 1, payload)

let count_shard cfg key = key mod cfg.n_shards
let distinct_shard cfg v = v mod cfg.n_shards

(* The deterministic source stream of one (shard, window): independent
   of placement, so replay after a failure regenerates the same
   events. *)
let stream_rng cfg ~shard ~window =
  Simnet.Rng.split
    (Simnet.Rng.create (Int64.of_int (cfg.seed + 1)))
    ((shard * cfg.windows) + window + 1)

(* Transient per-window accumulators, indexed by owner shard. *)
type tables = { counts : (int, int) Hashtbl.t array; vals : (int, unit) Hashtbl.t array }

let make_tables cfg =
  {
    counts = Array.init cfg.n_shards (fun _ -> Hashtbl.create 16);
    vals = Array.init cfg.n_shards (fun _ -> Hashtbl.create 16);
  }

let clear_tables t =
  Array.iter Hashtbl.reset t.counts;
  Array.iter Hashtbl.reset t.vals

let handler cfg tables ~src:_ block =
  V.iter
    (fun item ->
      let _window, kind, payload = unpack item in
      if kind = 0 then begin
        let tbl = tables.counts.(count_shard cfg payload) in
        let c = match Hashtbl.find_opt tbl payload with Some c -> c | None -> 0 in
        Hashtbl.replace tbl payload (c + 1)
      end
      else Hashtbl.replace tables.vals.(distinct_shard cfg payload) payload ())
    block

let generate kc agg cfg ~owner ~shard ~window =
  let rng = stream_rng cfg ~shard ~window in
  let last_flush = ref (K.now kc) in
  for e = 1 to cfg.events_per_shard do
    let key = Simnet.Rng.int rng cfg.n_keys in
    let value = Simnet.Rng.int rng cfg.n_values in
    A.send agg ~dst:(owner (count_shard cfg key)) (pack ~window ~kind:0 ~payload:key);
    A.send agg ~dst:(owner (distinct_shard cfg value)) (pack ~window ~kind:1 ~payload:value);
    if e mod 8 = 0 then begin
      (* event arrival pacing; the time-based flush bounds batching
         latency for whatever sits below the threshold *)
      K.compute kc 2.0e-6;
      A.poll agg;
      if K.now kc -. !last_flush >= cfg.flush_every then begin
        A.flush agg;
        last_flush := K.now kc
      end
    end
  done

(* (count desc, key asc): a total order, so ties break identically
   everywhere. *)
let by_rank (k1, c1) (k2, c2) = if c1 <> c2 then compare c2 c1 else compare k1 k2

let rec take n = function [] -> [] | _ when n <= 0 -> [] | x :: tl -> x :: take (n - 1) tl

(* Per-shard candidates: any key in the global top-k is in its own
   shard's top-k (keys are partitioned), so merging candidate lists is
   lossless. *)
let shard_summary cfg tables s =
  let cands = Hashtbl.fold (fun k c acc -> (k, c) :: acc) tables.counts.(s) [] in
  (s, take cfg.topk (List.sort by_rank cands), Hashtbl.length tables.vals.(s))

let summary_codec = Serde.Codec.(list (triple int (list (pair int int)) int))

let merge cfg summaries =
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) summaries in
  let cands = List.concat_map (fun (_, c, _) -> c) sorted in
  {
    top = take cfg.topk (List.sort by_rank cands);
    distinct = List.fold_left (fun acc (_, _, d) -> acc + d) 0 sorted;
  }

(* One window on an open communicator: generate, close the round with
   NBX termination, then merge the per-shard summaries globally. *)
let process_window kc agg cfg tables ~owner ~my_shards ~window =
  clear_tables tables;
  List.iter (fun s -> generate kc agg cfg ~owner ~shard:s ~window) my_shards;
  A.finish agg;
  let mine = List.map (fun s -> shard_summary cfg tables s) my_shards in
  let all = K.allgather_serialized kc summary_codec mine in
  merge cfg (List.concat (Array.to_list all))

let run kc cfg =
  check_cfg cfg;
  let p = K.size kc and me = K.rank kc in
  let owner s = s mod p in
  let my_shards =
    List.filter (fun s -> owner s = me) (List.init cfg.n_shards (fun s -> s))
  in
  let tables = make_tables cfg in
  let agg = A.create ~threshold:cfg.threshold kc D.int ~handler:(handler cfg tables) in
  let out =
    Array.init cfg.windows (fun w -> process_window kc agg cfg tables ~owner ~my_shards ~window:w)
  in
  A.close agg;
  out

(* --- resilient variant ---------------------------------------------

   The driver's round is the stream position, and it is all a shard
   needs to register: a window is a deterministic replay of its source
   streams, and the merged results of every closed window are already
   on every survivor (shrinking recovery only removes ranks). *)

let resilient ?policy kc cfg =
  check_cfg cfg;
  (* replayed windows overwrite their slot with the identical value *)
  let acc = Array.make cfg.windows None in
  ignore
    (Ckpt.run_sharded ?policy ~name:"stream" Serde.Codec.unit
       ~n_shards:cfg.n_shards kc ~init:ignore (fun ctx shards ->
         let kc = Ckpt.comm ctx in
         let tables = make_tables cfg in
         let agg = A.create ~threshold:cfg.threshold kc D.int ~handler:(handler cfg tables) in
         let owner s = Ckpt.owner_of ctx s and my_shards = List.map fst shards in
         fun ~round:w ->
           if w < cfg.windows then begin
             acc.(w) <- Some (process_window kc agg cfg tables ~owner ~my_shards ~window:w);
             true
           end
           else begin
             A.close agg;
             false
           end));
  Array.map Option.get acc

let reference cfg =
  check_cfg cfg;
  Array.init cfg.windows (fun w ->
      let counts : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let vals : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      for s = 0 to cfg.n_shards - 1 do
        let rng = stream_rng cfg ~shard:s ~window:w in
        for _ = 1 to cfg.events_per_shard do
          let key = Simnet.Rng.int rng cfg.n_keys in
          let value = Simnet.Rng.int rng cfg.n_values in
          let c = match Hashtbl.find_opt counts key with Some c -> c | None -> 0 in
          Hashtbl.replace counts key (c + 1);
          Hashtbl.replace vals value ()
        done
      done;
      let cands = Hashtbl.fold (fun k c a -> (k, c) :: a) counts [] in
      { top = take cfg.topk (List.sort by_rank cands); distinct = Hashtbl.length vals })
