module Engine = Simnet.Engine
module Netmodel = Simnet.Netmodel

type comm_shared = {
  cid : int;
  group : int array;
  net_params : Netmodel.params;
  hier : Netmodel.hier_profile option;
  mutable revoked : bool;
}

type t = {
  engine : Engine.t;
  net : Netmodel.t;
  size : int;
  mailboxes : Msg.mailbox array;
  env_pool : Msg.pool;
  prof : Profiling.t;
  mutable next_comm_id : int;
  alive : Ds.Bitset.t;
  death_times : float array;  (* world rank -> kill time; infinity while alive *)
  mutable fibers : Engine.fiber array;
  detection_delay : float;
  shrink_memo : (int * int, comm_shared) Hashtbl.t;
  agree_memo : (int * int, agree_cell) Hashtbl.t;
  tuning : Coll_algos.Select.t;
  check : Checker.state;
  trace : Trace.Recorder.t;
  comms : (int, comm_shared) Hashtbl.t;
  exhook : Exhook.t option;
  psets : (string, int array) Hashtbl.t;
  session_comms : (string, comm_shared) Hashtbl.t;
}

and agree_cell = {
  mutable acc : int;
  mutable waiting : int list;
  mutable lost : int option;
  mutable agree_waiters : int Engine.resumer list;
}

let create ?fabric ?(trace = Trace.Recorder.inert) ?exhook ~net_params ~size () =
  if size <= 0 then Errors.usage "World.create: size %d must be positive" size;
  let alive = Ds.Bitset.create size in
  Ds.Bitset.fill alive;
  let net =
    match fabric with
    | Some f -> Netmodel.create_fabric f ~ranks:size
    | None -> Netmodel.create net_params ~ranks:size
  in
  {
    engine = Engine.create ();
    net;
    size;
    mailboxes = Array.init size (fun _ -> Msg.create ());
    env_pool = Msg.create_pool ();
    prof = Profiling.create ();
    next_comm_id = 0;
    alive;
    death_times = Array.make size infinity;
    fibers = [||];
    detection_delay = 10.0e-6;
    shrink_memo = Hashtbl.create 8;
    agree_memo = Hashtbl.create 8;
    tuning = Coll_algos.Select.create ();
    check = Checker.create ();
    trace;
    comms = Hashtbl.create 8;
    exhook;
    psets =
      (let t = Hashtbl.create 4 in
       Hashtbl.replace t "mpi://world" (Array.init size Fun.id);
       t);
    session_comms = Hashtbl.create 4;
  }

let now w = Engine.now w.engine

(* Wildcard-receive match chooser: picks among candidate source ranks.
   None unless exploration is active, so the common path costs one field
   read. *)
let match_chooser w =
  match w.exhook with
  | Some h -> Some (fun ids -> h.Exhook.choose ~kind:Engine.Match ~ids)
  | None -> None

let arrival_adjust w =
  match w.exhook with Some h -> h.Exhook.arrival_adjust | None -> None

(* A communicator's planning profile is a function of its group alone, so
   it is computed once here rather than on every collective call. *)
let fresh_comm w group =
  let cid = w.next_comm_id in
  w.next_comm_id <- w.next_comm_id + 1;
  let shared =
    {
      cid;
      group;
      net_params = Netmodel.params_for_group w.net group;
      hier = Netmodel.hier_for_group w.net group;
      revoked = false;
    }
  in
  Hashtbl.replace w.comms cid shared;
  shared

(* {2 Sessions: named process sets}

   Process sets are plain named rank groups; registering or querying one
   touches no communicator or counter state, so sessions built from them
   cannot perturb a library that initialized independently. *)

let register_pset w name ranks =
  if name = "" then Errors.usage "World.register_pset: empty name";
  if Array.length ranks = 0 then Errors.usage "World.register_pset: empty process set %S" name;
  Array.iter
    (fun r ->
      if r < 0 || r >= w.size then
        Errors.usage "World.register_pset: rank %d out of range in %S" r name)
    ranks;
  let sorted = Array.copy ranks in
  Array.sort compare sorted;
  for i = 0 to Array.length sorted - 2 do
    if sorted.(i) = sorted.(i + 1) then
      Errors.usage "World.register_pset: duplicate rank %d in %S" sorted.(i) name
  done;
  (match Hashtbl.find_opt w.psets name with
  | Some existing when existing <> sorted ->
      Errors.usage "World.register_pset: %S already registered with a different membership" name
  | Some _ | None -> ());
  Hashtbl.replace w.psets name sorted

let pset w name = Hashtbl.find_opt w.psets name

let session_comm w ~key group =
  match Hashtbl.find_opt w.session_comms key with
  | Some shared -> shared
  | None ->
      let shared = fresh_comm w group in
      Hashtbl.replace w.session_comms key shared;
      shared

let comm_revoked w cid =
  match Hashtbl.find_opt w.comms cid with Some s -> s.revoked | None -> false

let is_alive w r = Ds.Bitset.mem w.alive r

let comm_failed_at w cid =
  match Hashtbl.find_opt w.comms cid with
  | Some s -> Array.fold_left (fun acc r -> Float.min acc w.death_times.(r)) infinity s.group
  | None -> infinity

let any_dead w group =
  let n = Array.length group in
  let rec go i = if i >= n then None else if is_alive w group.(i) then go (i + 1) else Some group.(i)
  in
  go 0

let kill w r =
  if is_alive w r then begin
    Ds.Bitset.clear w.alive r;
    w.death_times.(r) <- now w;
    if r < Array.length w.fibers then Engine.kill w.engine w.fibers.(r);
    (* The dead rank's own posted receives will never be resumed. *)
    Array.iter (fun mb -> Msg.drop_owned mb ~world_rank:r) w.mailboxes;
    (* Receives expecting data from [r] fail after the detection delay. *)
    let expects_dead (pr : Msg.pending_recv) =
      pr.src_world = r || (pr.src_world = -1 && Array.exists (fun g -> g = r) pr.comm_group)
    in
    Engine.schedule w.engine ~delay:w.detection_delay (fun () ->
        Array.iter
          (fun mb ->
            Msg.fail_matching mb ~pred:expects_dead ~exn:(Errors.Process_failed { world_rank = r }))
          w.mailboxes;
        (* Agreements [r] never joined close without it, and fail. *)
        Hashtbl.fold (fun key cell acc -> if List.mem r cell.waiting then (key, cell) :: acc else acc)
          w.agree_memo []
        |> List.iter (fun (key, cell) ->
               cell.waiting <- List.filter (( <> ) r) cell.waiting;
               if cell.lost = None then cell.lost <- Some r;
               if cell.waiting = [] then begin
                 Hashtbl.remove w.agree_memo key;
                 List.iter
                   (fun resumer -> Engine.fail resumer (Errors.Process_failed { world_rank = r }))
                   cell.agree_waiters
               end))
  end

let revoke w shared =
  if not shared.revoked then begin
    shared.revoked <- true;
    (* Revocation propagates asynchronously; a small delay models the
       revoke-propagation messages. *)
    Engine.schedule w.engine ~delay:(2.0 *. (Netmodel.params w.net).latency) (fun () ->
        Array.iter
          (fun mb ->
            Msg.fail_matching mb
              ~pred:(fun pr -> pr.want_comm = shared.cid)
              ~exn:Errors.Comm_revoked)
          w.mailboxes;
        Hashtbl.fold (fun ((cid, _) as key) cell acc -> if cid = shared.cid then (key, cell) :: acc else acc)
          w.agree_memo []
        |> List.iter (fun (key, cell) ->
               Hashtbl.remove w.agree_memo key;
               List.iter (fun resumer -> Engine.fail resumer Errors.Comm_revoked) cell.agree_waiters))
  end
