module Engine = Simnet.Engine
module Netmodel = Simnet.Netmodel

exception Rank_died

type 'a run_result = {
  results : ('a, exn) result array;
  sim_time : float;
  profile : Profiling.snapshot;
  events : int;
  elided : int;
  diagnostics : Checker.diagnostic list;
  trace : Trace.Event.data option;
}

type run_summary = {
  rs_sim_time : float;
  rs_events : int;
  rs_profile : Profiling.snapshot;
  rs_diagnostics : Checker.diagnostic list;
}

(* The run tee: every active [with_run_collector] sees every run that ends
   inside it, normally or by raising out of [run]. *)
let collectors : run_summary Ds.Vec.t Stack.t = Stack.create ()

let with_run_collector f =
  let seen = Ds.Vec.create () in
  Stack.push seen collectors;
  let result = Fun.protect ~finally:(fun () -> ignore (Stack.pop collectors)) f in
  (result, Ds.Vec.to_list seen)

let tee rs_sim_time rs_events rs_profile rs_diagnostics =
  if not (Stack.is_empty collectors) then begin
    let s = { rs_sim_time; rs_events; rs_profile; rs_diagnostics } in
    Stack.iter (fun seen -> Ds.Vec.push seen s) collectors
  end

let run ?(net = Netmodel.default) ?fabric ?(fail_at = []) ?trace ?hooks
    ?deadline ~ranks f =
  let tracing =
    match trace with Some b -> b | None -> Trace.Recorder.default_enabled ()
  in
  let recorder =
    if tracing then Trace.Recorder.create ~ranks else Trace.Recorder.inert
  in
  (* Exploration hooks: an explicit argument wins; otherwise consult the
     registered factory (env-driven activation, e.g. MPISIM_EXPLORE). *)
  let exhook = match hooks with Some _ -> hooks | None -> !Exhook.factory () in
  (* Topology: an explicit fabric wins; otherwise MPISIM_TOPOLOGY supplies
     a spec (read per run, so tests can toggle it with putenv).  An unset
     or empty variable keeps the flat model — the bit-identical default. *)
  let fabric =
    match fabric with
    | Some _ -> fabric
    | None -> (
        match Sys.getenv_opt "MPISIM_TOPOLOGY" with
        | None | Some "" -> None
        | Some _ when ranks <= 0 -> None (* World.create reports the size *)
        | Some spec -> Some (Netmodel.fabric_of_spec ~ranks spec))
  in
  let w = World.create ?fabric ~trace:recorder ?exhook ~net_params:net ~size:ranks () in
  (match exhook with
  | Some h ->
      Engine.set_chooser w.World.engine
        (Some (fun ~kind ~ids -> h.Exhook.choose ~kind ~ids))
  | None -> ());
  (match deadline with Some d -> Engine.set_deadline w.World.engine d | None -> ());
  if Trace.Recorder.active recorder then
    (* Forward genuine waits (suspensions) of rank fibers to the recorder.
       Delays are the ranks' own modelled computation, and helper fibers
       (non-blocking collectives) carry tag -1 — neither is rank waiting
       time.  Installing the observer adds no events and cannot perturb
       scheduling, keeping traced runs identical to untraced ones. *)
    Engine.set_park_observer w.World.engine
      (Some
         (fun ~tag ~kind ~parked_at ~resumed_at ->
           match kind with
           | Engine.Park_suspend when tag >= 0 ->
               Trace.Recorder.add_wait recorder ~rank:tag ~t0:parked_at
                 ~t1:resumed_at
           | _ -> ()));
  let shared = World.fresh_comm w (Array.init ranks Fun.id) in
  let results = Array.make ranks (Error Rank_died) in
  let fibers =
    Array.init ranks (fun r ->
        Engine.spawn w.World.engine ~label:(Printf.sprintf "rank%d" r) ~tag:r (fun () ->
            let comm = Comm.make w shared ~rank:r in
            (match f comm with
            | v -> results.(r) <- Ok v
            | exception e -> results.(r) <- Error e);
            Trace.Recorder.rank_done recorder ~rank:r ~time:(World.now w)))
  in
  w.World.fibers <- fibers;
  Ulfm.schedule_failures w ~fail_at;
  (* [Simnet.Profile.span] is the host profiler: exactly [Engine.run] when
     profiling is off, wall-time attribution when on.  Fine-level envelope
     pool stats ride along — a pure observation either way. *)
  (match Simnet.Profile.span "mpi.run" (fun () -> Engine.run w.World.engine) with
  | () ->
      (* clean quiesce: run the end-of-run leak checks *)
      Checker.finalize w.World.check ~mailboxes:w.World.mailboxes ~rank_alive:(World.is_alive w)
        ~comm_revoked:(World.comm_revoked w) ~comm_failed_at:(World.comm_failed_at w)
  | exception Engine.Deadlock _ when Checker.enabled Heavy ->
      (* diagnose instead of hanging the caller with an opaque exception:
         the run terminates normally, carrying the structured report *)
      let parked = ref [] in
      Array.iteri (fun r fib -> if Engine.is_parked fib then parked := r :: !parked) fibers;
      ignore
        (Checker.diagnose_deadlock w.World.check ~mailboxes:w.World.mailboxes
           ~parked:(List.rev !parked) ~rank_alive:(World.is_alive w))
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      tee (Engine.now w.World.engine)
        (Engine.events_processed w.World.engine)
        (Profiling.snapshot w.World.prof)
        (Checker.diagnostics w.World.check);
      Printexc.raise_with_backtrace e bt);
  if Simnet.Profile.fine () then begin
    let made, reused = Msg.pool_stats w.World.env_pool in
    Simnet.Profile.record_max "mpi.envelopes_made" made;
    Simnet.Profile.record_max "mpi.envelopes_reused" reused
  end;
  let result =
    {
      results;
      sim_time = Engine.now w.World.engine;
      profile = Profiling.snapshot w.World.prof;
      events = Engine.events_processed w.World.engine;
      elided = Engine.elided w.World.engine;
      diagnostics = Checker.diagnostics w.World.check;
      trace =
        (if Trace.Recorder.active recorder then
           Some (Trace.Recorder.finish recorder ~total:(Engine.now w.World.engine))
         else None);
    }
  in
  tee result.sim_time result.events result.profile result.diagnostics;
  result

let results_exn r =
  Array.map (function Ok v -> v | Error e -> raise e) r.results

let run_exn ~ranks f = results_exn (run ~ranks f)
