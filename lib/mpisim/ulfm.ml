module Engine = Simnet.Engine
module Netmodel = Simnet.Netmodel

let schedule_failures w ~fail_at =
  (* Validate the whole schedule up front so a malformed entry rejects the
     schedule before any kill is armed. *)
  List.iter
    (fun (world_rank, at) ->
      if world_rank < 0 || world_rank >= w.World.size then
        Errors.usage "schedule_failures: bad rank %d" world_rank;
      if Float.is_nan at then Errors.usage "schedule_failures: NaN time for rank %d" world_rank)
    fail_at;
  List.iter
    (fun (world_rank, at) ->
      let delay = Float.max 0.0 (at -. World.now w) in
      Engine.schedule w.World.engine ~delay (fun () -> World.kill w world_rank))
    fail_at

let revoke comm =
  Observe.call Comm_mgmt comm "MPI_Comm_revoke" (fun () ->
      World.revoke (Comm.world comm) (Comm.shared comm))

let is_revoked = Comm.is_revoked

let survivors comm =
  let w = Comm.world comm in
  Comm.group comm |> Array.to_list
  |> List.filteri (fun _ wr -> World.is_alive w wr)
  |> Array.of_list

(* Shrink: the survivor set is computed from ground truth (standing in for
   the ULFM agreement protocol); the first caller materializes the shared
   state, keyed by (parent id, per-rank shrink epoch), which agrees across
   ranks because shrink is collective.  A barrier on the new communicator
   provides the synchronization the real protocol would.  Shrink must
   succeed despite failures during it: a member that dies before the
   barrier completes leaves some survivors failing and others blocked on
   them, so the failing ones revoke the new communicator (releasing the
   blocked ones) and every survivor shrinks it in turn.  A survivor that
   already passed the barrier meets the failure in its next operation
   and shrinks the same communicator from its recovery path. *)
let rec shrink comm =
  Observe.call Comm_mgmt comm "MPI_Comm_shrink" @@ fun () ->
  let w = Comm.world comm in
  let epoch = Comm.next_shrink_epoch comm in
  let key = (Comm.id comm, epoch) in
  let shared =
    match Hashtbl.find_opt w.World.shrink_memo key with
    | Some shared -> shared
    | None ->
        let shared = World.fresh_comm w (survivors comm) in
        Hashtbl.add w.World.shrink_memo key shared;
        shared
  in
  let my_world = Comm.world_rank_of comm (Comm.rank comm) in
  let rank =
    let group = shared.World.group in
    let rec go i =
      if i >= Array.length group then Errors.usage "shrink: caller not among survivors"
      else if group.(i) = my_world then i
      else go (i + 1)
    in
    go 0
  in
  let fresh = Comm.make w shared ~rank in
  match Collectives.barrier fresh with
  | () -> fresh
  | exception (Errors.Process_failed _ | Errors.Comm_revoked) ->
      revoke fresh;
      shrink fresh

(* Agreement: survivors deposit their contribution into a shared cell and
   park until the last one closes the round.  Costs a tree's worth of
   latency, charged to every participant.  A participant that dies before
   depositing is dropped from the round once detected (see [World.kill]),
   and the round then fails uniformly at every survivor.  Unlike ULFM's
   MPI_Comm_agree, revocation interrupts it like any other operation: a
   survivor that revokes after a failure moves on to [shrink], so peers
   parked in an agreement it will never join must follow. *)
let agree comm v =
  Comm.check_active comm;
  Observe.call Comm_mgmt comm "MPI_Comm_agree" @@ fun () ->
  let w = Comm.world comm in
  let epoch = Comm.next_agree_epoch comm in
  let key = (Comm.id comm, epoch) in
  let live = survivors comm in
  let cell =
    match Hashtbl.find_opt w.World.agree_memo key with
    | Some cell -> cell
    | None ->
        let cell =
          { World.acc = -1; waiting = Array.to_list live; lost = None; agree_waiters = [] }
        in
        Hashtbl.add w.World.agree_memo key cell;
        cell
  in
  let rounds = int_of_float (ceil (log (float_of_int (max 2 (Array.length live))) /. log 2.0)) in
  let cost = 2.0 *. float_of_int rounds *. (Netmodel.params w.World.net).latency in
  Engine.delay w.World.engine cost;
  (* A revocation that landed meanwhile has already released the round. *)
  Comm.check_active comm;
  let me = Comm.world_rank_of comm (Comm.rank comm) in
  cell.World.acc <- cell.World.acc land v;
  cell.World.waiting <- List.filter (( <> ) me) cell.World.waiting;
  if cell.World.waiting <> [] then
    Engine.suspend w.World.engine (fun resumer ->
        cell.World.agree_waiters <- resumer :: cell.World.agree_waiters)
  else begin
    Hashtbl.remove w.World.agree_memo key;
    match cell.World.lost with
    | Some r ->
        let e = Errors.Process_failed { world_rank = r } in
        List.iter (fun resumer -> Engine.fail resumer e) cell.World.agree_waiters;
        raise e
    | None ->
        let result = cell.World.acc in
        List.iter (fun resumer -> Engine.resume resumer result) cell.World.agree_waiters;
        result
  end
