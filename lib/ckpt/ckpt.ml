module Snapshot = Snapshot
module Schedule = Schedule
module A = Serde.Archive
module KC = Kamping.Comm
module Wire = Kamping.Serialization

module Bundle = struct
  (* The entries are encoded before the bundle's build starts, so each
     takes the shared scratch writer instead of a fresh one. *)
  let encode ~name codec state ~round =
    let state = Serde.Codec.encode codec state in
    let round = Serde.Codec.encode Serde.Codec.int round in
    A.build (fun w ->
        A.write_varint w 2;
        A.write_string w name;
        A.write_bytes w state;
        A.write_string w "round";
        A.write_bytes w round)

  let decode ~name codec b =
    let r = A.reader ~pos:0 ~len:(Bytes.length b) b in
    let n = A.read_varint r in
    if n <> 2 then raise (A.Corrupt (Printf.sprintf "bundle: %d entries, expected 2" n));
    let entry expected c =
      let got = A.read_string r in
      if got <> expected then
        raise (A.Corrupt (Printf.sprintf "bundle: entry %S, expected %S" got expected));
      Serde.Codec.decode c (A.read_bytes r)
    in
    let state = entry name codec in
    let round = entry "round" Serde.Codec.int in
    if not (A.at_end r) then
      raise (A.Corrupt (Printf.sprintf "bundle: %d trailing bytes" (A.remaining r)));
    (state, round)
end

exception Attempts_exhausted of { attempts : int }
exception Unrecoverable of string

(* Test-only mutation switch: when set, schedule resolution uses the LOCAL
   snapshot size instead of the collectively agreed (allreduce-max) one —
   reintroducing the Daly-period divergence bug fixed after PR 4.  Exists
   solely so the schedule-exploration harness can prove it detects the bug
   (see test/test_explore.ml's mutation smoke and bin/ci.sh's gate).  Never
   set this outside tests. *)
let test_resched_local_size = ref false

(* Engine-reserved tags, far away from the apps' small tag spaces. *)
let tag_len = 0x7c01
let tag_payload = 0x7c02
let tag_extra_len = 0x7c03
let tag_extra_payload = 0x7c04

type stored = { snap : Bytes.t; covered : int list (* shards inside, ascending *) }

type ctx = {
  save : int -> Bytes.t;  (* shard -> its bundle *)
  restore : int -> Bytes.t -> unit;
  n_shards : int;
  policy : Schedule.policy;
  failure_rate : float;
  mine : (int, stored) Hashtbl.t;  (* epoch -> my own snapshot *)
  held : (int * int, stored) Hashtbl.t;  (* (epoch, origin world rank) -> buddy copy *)
  mutable sched : Schedule.t;
  mutable comm : KC.t;
  mutable shards : int list;  (* ascending *)
  mutable owners : int array;  (* shard -> current comm rank *)
  mutable epoch : int;  (* epoch the next checkpoint writes *)
  mutable resched : bool;  (* re-resolve the schedule at the next checkpoint *)
  mutable ckpt_cost : float;  (* LogGP prediction, 0. until first measured *)
  mutable last_ckpt_time : float;
  mutable iters_since : int;
  mutable n_checkpoints : int;
  mutable n_recoveries : int;
}

let comm ctx = ctx.comm

let owner_of ctx shard =
  if shard < 0 || shard >= ctx.n_shards then
    Mpisim.Errors.usage "Ckpt.owner_of: shard %d out of range [0, %d)" shard ctx.n_shards;
  ctx.owners.(shard)

let schedule ctx = ctx.sched
let predicted_ckpt_cost ctx = ctx.ckpt_cost
let checkpoints_taken ctx = ctx.n_checkpoints
let recoveries ctx = ctx.n_recoveries

(* Snapshot payloads pack the owned shards as (shard id, bundle) pairs so
   a buddy copy is self-describing. *)
let pack_shards ctx =
  let bundles = List.map (fun s -> (s, ctx.save s)) ctx.shards in
  A.build (fun w ->
      A.write_varint w (List.length bundles);
      List.iter
        (fun (s, b) ->
          A.write_varint w s;
          A.write_bytes w b)
        bundles)

let unpack_shards payload =
  let r = A.reader ~pos:0 ~len:(Bytes.length payload) payload in
  let n = A.read_varint r in
  if n < 0 then raise (A.Corrupt (Printf.sprintf "ckpt: negative shard count %d" n));
  let out = ref [] in
  for _ = 1 to n do
    let s = A.read_varint r in
    let b = A.read_bytes r in
    out := (s, b) :: !out
  done;
  if not (A.at_end r) then
    raise (A.Corrupt (Printf.sprintf "ckpt: %d trailing payload bytes" (A.remaining r)));
  List.rev !out

let ser_cost comm bytes = KC.compute comm (Mpisim.Datatype.serialization_cost ~bytes)

let net_params comm = (Mpisim.Comm.shared (KC.raw comm)).Mpisim.World.net_params

let store_held ctx b =
  let s = Snapshot.decode_expect ~epoch:ctx.epoch b in
  let covered = List.map fst (unpack_shards s.payload) in
  Hashtbl.replace ctx.held (s.epoch, s.rank) { snap = b; covered }

(* Keep the two most recent epochs: a failure mid-checkpoint of epoch e can
   always fall back to the complete epoch e-1. *)
let prune ctx =
  let keep e = e >= ctx.epoch - 2 in
  Hashtbl.fold (fun e _ acc -> if keep e then acc else e :: acc) ctx.mine []
  |> List.iter (Hashtbl.remove ctx.mine);
  Hashtbl.fold (fun k _ acc -> if keep (fst k) then acc else k :: acc) ctx.held []
  |> List.iter (Hashtbl.remove ctx.held)

let checkpoint ctx =
  let comm = ctx.comm in
  let raw = KC.raw comm in
  let me = KC.rank comm and p = KC.size comm in
  let payload = pack_shards ctx in
  let my_world = Mpisim.Comm.world_rank_of raw me in
  let snap = Snapshot.encode { epoch = ctx.epoch; rank = my_world; payload } in
  ser_cost comm (Bytes.length snap);
  if ctx.resched then begin
    (* The checkpoint reveals the snapshot size: resolve the schedule
       against the LogGP-predicted per-checkpoint cost.  Snapshot sizes
       differ across ranks (varint payloads, uneven shard counts), so
       agree on the largest one — a locally derived Daly period would
       diverge between ranks and desynchronize the collective checkpoint
       calls.  Redone after recovery, when the shard distribution (and
       with it the sizes) changed. *)
    let bytes =
      if p > 1 && not !test_resched_local_size then
        KC.allreduce_single comm Mpisim.Datatype.int Mpisim.Op.int_max (Bytes.length snap)
      else Bytes.length snap
    in
    ctx.ckpt_cost <- Schedule.predict_ckpt_cost (net_params comm) ~p ~bytes;
    ctx.sched <- Schedule.create ctx.policy ~ckpt_cost:ctx.ckpt_cost ~failure_rate:ctx.failure_rate;
    ctx.resched <- false
  end;
  Hashtbl.replace ctx.mine ctx.epoch { snap; covered = ctx.shards };
  (if p > 1 then
     let buddy =
       let b = me lxor 1 in
       if b >= p then me else b
     in
     if buddy <> me then begin
       let recv_len = [| 0 |] in
       ignore
         (Mpisim.P2p.sendrecv raw Mpisim.Datatype.int
            ~send:[| Bytes.length snap |]
            ~dst:buddy ~stag:tag_len ~recv:recv_len ~src:buddy ~rtag:tag_len ());
       let recv_buf = Bytes.create recv_len.(0) in
       ignore
         (Mpisim.P2p.sendrecv raw Wire.wire_datatype ~send:snap ~dst:buddy ~stag:tag_payload
            ~recv:recv_buf ~src:buddy ~rtag:tag_payload ());
       store_held ctx recv_buf
     end;
     (* Odd communicator size: the self-paired last rank ships an extra
        copy to rank 0 so its state too survives its own failure. *)
     if p land 1 = 1 then
       if me = p - 1 then begin
         Mpisim.P2p.send raw Mpisim.Datatype.int
           [| Bytes.length snap |]
           ~dst:0 ~tag:tag_extra_len;
         Mpisim.P2p.send raw Wire.wire_datatype snap ~dst:0 ~tag:tag_extra_payload
       end
       else if me = 0 then begin
         let len = [| 0 |] in
         ignore (Mpisim.P2p.recv raw Mpisim.Datatype.int len ~src:(p - 1) ~tag:tag_extra_len);
         let buf = Bytes.create len.(0) in
         ignore (Mpisim.P2p.recv raw Wire.wire_datatype buf ~src:(p - 1) ~tag:tag_extra_payload);
         store_held ctx buf
       end);
  (* Agree on the per-iteration cost so every rank derives the same
     checkpoint period (max is the conservative, deterministic choice).
     The initial and post-recovery checkpoints ([iters_since = 0])
     timed setup or restore work, not an application iteration: they
     contribute 0, which leaves the period unchanged, instead of a
     bogus sample. *)
  let local =
    if ctx.iters_since = 0 then 0.0
    else (KC.now comm -. ctx.last_ckpt_time) /. float_of_int ctx.iters_since
  in
  let iter_cost =
    if p > 1 then KC.allreduce_single comm Mpisim.Datatype.float Mpisim.Op.float_max local
    else local
  in
  Schedule.record_checkpoint ctx.sched ~iter_cost;
  ctx.iters_since <- 0;
  ctx.last_ckpt_time <- KC.now comm;
  ctx.epoch <- ctx.epoch + 1;
  ctx.n_checkpoints <- ctx.n_checkpoints + 1;
  prune ctx

let maybe_checkpoint ctx =
  Schedule.tick ctx.sched;
  ctx.iters_since <- ctx.iters_since + 1;
  if Schedule.due ctx.sched then checkpoint ctx

(* The recovery index one survivor contributes: every stored snapshot as
   (epoch, origin world rank, (is my own, covered shards)). *)
let index_codec : (int * int * (bool * int list)) list Serde.Codec.t =
  Serde.Codec.(list (triple int int (pair bool (list int))))

let recover ctx =
  ctx.n_recoveries <- ctx.n_recoveries + 1;
  let comm = ctx.comm in
  let me = KC.rank comm and p = KC.size comm in
  let my_world = Mpisim.Comm.world_rank_of (KC.raw comm) me in
  let my_index =
    Hashtbl.fold (fun e st acc -> (e, my_world, (true, st.covered)) :: acc) ctx.mine []
    @ Hashtbl.fold (fun (e, origin) st acc -> (e, origin, (false, st.covered)) :: acc) ctx.held []
  in
  let index = KC.allgather_serialized comm index_codec my_index in
  (* Newest epoch whose copies, over all survivors, cover every shard. *)
  let module IS = Set.Make (Int) in
  let cover = Hashtbl.create 8 in
  Array.iter
    (List.iter (fun (e, _origin, (_own, covered)) ->
         let cur = Option.value (Hashtbl.find_opt cover e) ~default:IS.empty in
         Hashtbl.replace cover e (List.fold_left (fun s x -> IS.add x s) cur covered)))
    index;
  let best =
    Hashtbl.fold
      (fun e s acc -> if IS.cardinal s = ctx.n_shards && e > acc then e else acc)
      cover (-1)
  in
  if best < 0 then
    raise (Unrecoverable "ckpt: no globally complete checkpoint epoch survives");
  (* Everyone derived [best] from the same index; ULFM agree (bitwise AND)
     commits it and catches any divergence. *)
  let agreed = Kamping_plugins.Ulfm.agree comm best in
  if agreed <> best then
    raise
      (Unrecoverable
         (Printf.sprintf "ckpt: epoch agreement mismatch (local %d, agreed %d)" best agreed));
  (* Designated restorer per shard: the origin survivor if alive, else the
     lowest-ranked survivor holding a buddy copy.  Deterministic, so every
     rank computes the same assignment. *)
  let owners = Array.make ctx.n_shards (-1) in
  let origin_of = Array.make ctx.n_shards (-1) in
  let score = Array.make ctx.n_shards max_int in
  Array.iteri
    (fun r entries ->
      List.iter
        (fun (e, origin, (own, covered)) ->
          if e = best then
            List.iter
              (fun s ->
                if s < 0 || s >= ctx.n_shards then
                  raise (Unrecoverable (Printf.sprintf "ckpt: snapshot names shard %d" s));
                let sc = if own then r else p + r in
                if sc < score.(s) then begin
                  score.(s) <- sc;
                  owners.(s) <- r;
                  origin_of.(s) <- origin
                end)
              covered)
        entries)
    index;
  Array.iteri
    (fun s r ->
      if r < 0 then raise (Unrecoverable (Printf.sprintf "ckpt: shard %d has no copy" s)))
    owners;
  let my_shards = ref [] in
  for s = ctx.n_shards - 1 downto 0 do
    if owners.(s) = me then my_shards := s :: !my_shards
  done;
  (* Restore the shards assigned to this rank from the stored snapshots. *)
  List.iter
    (fun s ->
      let origin = origin_of.(s) in
      let st =
        if origin = my_world then Hashtbl.find_opt ctx.mine best
        else Hashtbl.find_opt ctx.held (best, origin)
      in
      match st with
      | None ->
          raise
            (Unrecoverable
               (Printf.sprintf "ckpt: missing local copy of shard %d (origin %d)" s origin))
      | Some st -> (
          let snap = Snapshot.decode_expect ~epoch:best st.snap in
          match List.assoc_opt s (unpack_shards snap.payload) with
          | None ->
              raise
                (Unrecoverable
                   (Printf.sprintf "ckpt: snapshot of rank %d lacks shard %d" origin s))
          | Some bundle ->
              ser_cost comm (Bytes.length bundle);
              ctx.restore s bundle))
    !my_shards;
  ctx.shards <- !my_shards;
  ctx.owners <- owners;
  (* Roll back: epochs newer than the agreed one never globally completed. *)
  ctx.epoch <- best + 1;
  Hashtbl.fold (fun e _ acc -> if e > best then e :: acc else acc) ctx.mine []
  |> List.iter (Hashtbl.remove ctx.mine);
  Hashtbl.fold (fun k _ acc -> if fst k > best then k :: acc else acc) ctx.held []
  |> List.iter (Hashtbl.remove ctx.held);
  Schedule.reset ctx.sched;
  ctx.iters_since <- 0;
  ctx.last_ckpt_time <- KC.now comm;
  (* The shard redistribution changed the snapshot sizes: resolve the
     schedule afresh at the next checkpoint. *)
  ctx.resched <- true;
  (* Fresh checkpoint under the new buddy pairing before resuming, so a
     second failure cannot orphan the just-adopted shards. *)
  checkpoint ctx

(* --- the sharded application driver -------------------------------- *)

let route ctx codec msgs =
  let me = KC.rank ctx.comm in
  let outgoing = Array.make (KC.size ctx.comm) [] in
  let local = ref [] in
  List.iter
    (fun ((_, dst, _) as m) ->
      let o = owner_of ctx dst in
      if o = me then local := m :: !local else outgoing.(o) <- m :: outgoing.(o))
    msgs;
  let received =
    KC.alltoallv_serialized ctx.comm
      Serde.Codec.(list (triple int int codec))
      (Array.map List.rev outgoing)
  in
  let inbox = Hashtbl.create 8 in
  let deliver (src, dst, x) =
    Hashtbl.replace inbox dst ((src, x) :: Option.value (Hashtbl.find_opt inbox dst) ~default:[])
  in
  List.iter deliver (List.rev !local);
  Array.iter (List.iter deliver) received;
  (* Every source shard lives on exactly one rank, so a stable sort by
     source restores a placement-independent order. *)
  fun dst ->
    match Hashtbl.find_opt inbox dst with
    | None -> []
    | Some rev -> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev rev)

let run_sharded ?(policy = Schedule.Daly) ?(failure_rate = 0.0) ?(max_attempts = 8)
    ?(on_complete = ignore) ~name codec ~n_shards comm ~init attempt =
  if name = "round" then
    Mpisim.Errors.usage "Ckpt.run_sharded: name %S is reserved for the round counter" name;
  if n_shards <= 0 then Mpisim.Errors.usage "Ckpt.run_sharded: n_shards %d" n_shards;
  if max_attempts <= 0 then
    Mpisim.Errors.usage "Ckpt.run_sharded: max_attempts %d" max_attempts;
  let states = Hashtbl.create 8 and round = ref 0 in
  let p = KC.size comm in
  let ctx =
    {
      save = (fun s -> Bundle.encode ~name codec (Hashtbl.find states s) ~round:!round);
      (* Restoring sets the live counter, so the checkpoint that ends
         [recover] saves the restored round next to the restored states. *)
      restore =
        (fun s b ->
          let st, r = Bundle.decode ~name codec b in
          Hashtbl.replace states s st;
          round := r);
      n_shards;
      policy;
      failure_rate;
      mine = Hashtbl.create 4;
      held = Hashtbl.create 4;
      sched = Schedule.create policy ~ckpt_cost:0.0 ~failure_rate;
      comm;
      shards = List.filter (fun s -> s mod p = KC.rank comm) (List.init n_shards Fun.id);
      owners = Array.init n_shards (fun s -> s mod p);
      epoch = 0;
      resched = true;
      ckpt_cost = 0.0;
      last_ckpt_time = KC.now comm;
      iters_since = 0;
      n_checkpoints = 0;
      n_recoveries = 0;
    }
  in
  (* One attempt: initialize (or recover) the owned shards, write the
     initial checkpoint, then run rounds until the step says stop.  A
     detected failure revokes, shrinks and re-enters on the survivors. *)
  let rec run tries ~restored =
    if KC.size ctx.comm = 0 then raise (Unrecoverable "ckpt: no surviving rank");
    if tries >= max_attempts then raise (Attempts_exhausted { attempts = tries });
    match
      if restored then begin
        recover ctx;
        (* All restored shards come from one epoch; a rank left without
           shards learns the round from the others. *)
        let local = if ctx.shards = [] then min_int else !round in
        round := KC.allreduce_single ctx.comm Mpisim.Datatype.int Mpisim.Op.int_max local
      end
      else List.iter (fun s -> Hashtbl.replace states s (init s)) ctx.shards;
      if ctx.epoch = 0 then checkpoint ctx;
      let shards = List.map (fun s -> (s, Hashtbl.find states s)) ctx.shards in
      let step = attempt ctx shards in
      while step ~round:!round do
        incr round;
        maybe_checkpoint ctx
      done;
      on_complete ctx;
      shards
    with
    | v -> v
    | exception (Mpisim.Errors.Process_failed _ | Mpisim.Errors.Comm_revoked) ->
        if not (Kamping_plugins.Ulfm.is_revoked ctx.comm) then
          Kamping_plugins.Ulfm.revoke ctx.comm;
        ctx.comm <- Kamping_plugins.Ulfm.shrink ctx.comm;
        run (tries + 1) ~restored:true
  in
  run 0 ~restored:false
