type cat = P2p | Coll | Rma | Comm_mgmt | User
type handle = Request of Request.t | Persistent of Persist.t | Window of bool ref

let cat_name = function
  | P2p -> "p2p"
  | Coll -> "coll"
  | Rma -> "rma"
  | Comm_mgmt -> "comm"
  | User -> "user"

let my_world comm = Comm.world_rank_of comm (Comm.rank comm)
let tracing comm = Trace.Recorder.active (Comm.world comm).World.trace

let track comm ~op = function
  | Some h when Checker.enabled Heavy -> (
      let w = Comm.world comm in
      let st = w.World.check and rank = my_world comm and cid = Comm.id comm in
      match h with
      | Request req -> Checker.track_request st ~rank ~comm:cid ~op ~at:(World.now w) req
      | Persistent h ->
          Checker.track_persistent st ~rank ~comm:cid ~op ~at:(World.now w)
            ~freed:(fun () -> Persist.is_freed h)
            ~starts:(fun () -> Persist.starts h)
      | Window freed -> Checker.track_window st ~rank ~comm:cid ~freed)
  | _ -> ()

(* Run [f] inside a span.  [Fun.protect] spans the fiber's suspensions, so
   the span covers the full blocking time of the call; exceptional exits
   are closed too. *)
let within cat comm op ~seq f =
  let w = Comm.world comm in
  let t0 = World.now w in
  Fun.protect
    ~finally:(fun () ->
      Trace.Recorder.add_span w.World.trace
        {
          Trace.Event.sp_rank = my_world comm;
          sp_op = op;
          sp_cat = cat_name cat;
          sp_comm = Comm.id comm;
          sp_seq = seq;
          sp_t0 = t0;
          sp_t1 = World.now w;
        })
    f

let span ~ctx cat comm op f =
  if ctx = Msg.User && tracing comm then within cat comm op ~seq:(-1) f else f ()

(* Count a user-level call; true when it is to be spanned. *)
let p2p ~ctx comm op =
  ctx = Msg.User
  && begin
       Profiling.record_call (Comm.world comm).World.prof op;
       tracing comm
     end

let call ?(ctx = Msg.User) ?track:h cat comm op f =
  if ctx = Msg.User then track comm ~op h;
  if p2p ~ctx comm op then within cat comm op ~seq:(-1) f else f ()

let coll ?(root = -1) ?(count = -1) ?dt ?algo ?track:h comm op f =
  let w = Comm.world comm in
  Profiling.record_call w.World.prof op;
  let seq = Comm.next_coll_index comm in
  if Checker.enabled Communication then begin
    let datatype = match dt with Some dt -> Datatype.name dt | None -> "" in
    Checker.record_collective w.World.check ~rank:(my_world comm) ~comm:(Comm.id comm)
      ~index:seq ~op ~root ~count ~datatype
  end;
  (match algo with
  | Some a -> Profiling.record_algo w.World.prof (op ^ "[" ^ a ^ "]")
  | None -> ());
  track comm ~op h;
  if tracing comm then within Coll comm op ~seq f else f ()

let p2p_request ~ctx comm op req =
  if ctx = Msg.User && Checker.enabled Heavy then track comm ~op (Some (Request req));
  p2p ~ctx comm op

let message w ~src ~dst ~tag ~bytes ~user ~sent ~arrived =
  Profiling.record_message w.World.prof ~bytes;
  if Trace.Recorder.active w.World.trace then
    Some (Trace.Recorder.add_message w.World.trace ~src ~dst ~tag ~bytes ~user ~sent ~arrived)
  else None

let matched comm ~op ~posted (env : Msg.envelope) result =
  (match env.Msg.trace with
  | Some m -> Trace.Event.stamp_match m ~posted ~time:(World.now (Comm.world comm))
  | None -> ());
  (match result with
  | Error e ->
      Checker.record_match_error (Comm.world comm).World.check ~rank:(my_world comm)
        ~comm:(Comm.id comm) ~op e
  | Ok _ -> ());
  result
