module Engine = Simnet.Engine
module Netmodel = Simnet.Netmodel

let any_source = Msg.any_source
let any_tag = Msg.any_tag

(* What every call checks first: an active communicator, a non-negative
   user tag (receive patterns may use the wildcard) and a committed
   datatype.  Every entry point validates its arguments before it calls
   [Observe], so a rejected call is neither counted nor tracked. *)
let check ?(recv = false) ~ctx comm dt tag =
  Comm.check_active comm;
  if ctx = Msg.User && tag < 0 && not (recv && tag = any_tag) then
    Errors.usage "user message tags must be non-negative (got %d)" tag;
  Datatype.mark_committed dt

let window_bounds ~what dt buf pos count =
  let len = Datatype.length dt buf in
  let count = match count with Some c -> c | None -> len - pos in
  if pos < 0 || count < 0 || pos + count > len then
    Errors.usage "%s: window [%d, %d) exceeds buffer of length %d" what pos (pos + count) len;
  count

let my_world comm = Comm.world_rank_of comm (Comm.rank comm)

(* Per-call software initiation cost (argument validation, matching setup).
   Only user-level ephemeral calls pay it; persistent operations charge it
   once at init.  Zero by default, and the [> 0.0] guard keeps the default
   schedule free of extra events. *)
let charge_setup ~ctx comm =
  if ctx = Msg.User then begin
    let w = Comm.world comm in
    let so = (Netmodel.params w.World.net).Netmodel.setup_overhead in
    if so > 0.0 then Engine.delay w.World.engine so
  end

(* Book a validated message into the network and schedule its arrival.
   No validation happens here — this is the path persistent [start]s reuse
   after validating once at init.  Returns the injection-complete time
   (when the sender's buffer is reusable). *)
let inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched ~payload =
  let w = Comm.world comm in
  let src_world = Comm.world_rank_of comm (Comm.rank comm) in
  let dst_world = Comm.world_rank_of comm dst in
  let bytes = Datatype.bytes dt count in
  let now = World.now w in
  let injected, arrival =
    Netmodel.transfer w.World.net ~now ~src:src_world ~dst:dst_world ~bytes
      ~pack_factor:(Datatype.pack_factor dt)
  in
  (* Chaos-layer latency jitter: the adjusted arrival is used for both the
     trace record and the delivery event, so traced explored runs stay
     self-consistent.  The hook preserves per-(src,dst) FIFO order. *)
  let arrival =
    match World.arrival_adjust w with
    | None -> arrival
    | Some adj -> Float.max arrival (adj ~src:src_world ~dst:dst_world ~arrival)
  in
  (* Count every injected message; a traced run records each one —
     internal collective traffic included, so the critical path can thread
     through collectives.  The arrival time is known now (the network model
     is deterministic), so tracing schedules no extra event. *)
  let trace_msg =
    Observe.message w ~src:src_world ~dst:dst_world ~tag ~bytes ~user:(ctx = Msg.User) ~sent:now
      ~arrived:arrival
  in
  if World.is_alive w dst_world then begin
    let env =
      Msg.make_envelope w.World.env_pool ~src:(Comm.rank comm) ~src_world ~tag
        ~comm_id:(Comm.id comm) ~ctx ~count ~bytes ~sent_at:now ~payload
        ~on_matched ~trace:trace_msg
    in
    Engine.schedule w.World.engine
      ~delay:(arrival -. now)
      (fun () -> Msg.arrive w.World.env_pool w.World.mailboxes.(dst_world) env)
  end;
  injected

(* Charge the per-call setup cost and inject — the ephemeral send path. *)
let inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched =
  charge_setup ~ctx comm;
  inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched
    ~payload:(Msg.pack dt buf pos count)

(* The hot point-to-point calls ([send], [isend], [recv], [irecv]) keep
   their bodies in top-level functions and call them directly unless a
   span is recorded, so an untraced call allocates no closure. *)
let send_body w comm dt buf pos count ~dst ~tag ~ctx =
  let injected = inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched:None in
  Engine.delay w.World.engine (injected -. World.now w)

let send ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  check ~ctx comm dt tag;
  let count = window_bounds ~what:"send" dt buf pos count in
  let w = Comm.world comm in
  if Observe.p2p ~ctx comm "MPI_Send" then
    Observe.span ~ctx P2p comm "MPI_Send" (fun () ->
        send_body w comm dt buf pos count ~dst ~tag ~ctx)
  else send_body w comm dt buf pos count ~dst ~tag ~ctx

(* ------------------------------------------------------------------ *)
(* Send completion.  A send request completes at its injection time     *)
(* ([complete_at]) or, in synchronous mode, when the receiver's ack     *)
(* returns ([ack_on_match]).                                            *)
(* ------------------------------------------------------------------ *)

(* Complete [req] with [st] at [injected], once the sender's buffer is
   reusable.  The completion takes a reserved slot and costs an event only
   if a fiber blocks on [req] before it passes.  Under an exploration
   chooser it stays an eager event, so ready sets, explored interleavings
   and replay tokens see every completion. *)
let complete_at w req st injected =
  let e = w.World.engine in
  if Engine.exploring e then
    Engine.schedule e ~delay:(injected -. World.now w) (fun () -> Request.complete req st)
  else Request.due req ~at:injected st

(* The synchronous-mode match hook: the acknowledgment travels back to
   the sender and completes [req] with [st]. *)
let ack_on_match w req st =
  let latency = (Netmodel.params w.World.net).Netmodel.latency in
  Some (fun () -> Engine.schedule w.World.engine ~delay:latency (fun () -> Request.complete req st))

let isend_body w comm dt buf pos count ~dst ~tag ~ctx req =
  let injected = inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched:None in
  complete_at w req { Request.source = dst; tag; count } injected;
  req

let isend ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  check ~ctx comm dt tag;
  let count = window_bounds ~what:"isend" dt buf pos count in
  let w = Comm.world comm in
  let req = Request.create w.World.engine in
  if Observe.p2p_request ~ctx comm "MPI_Isend" req then
    Observe.span ~ctx P2p comm "MPI_Isend" (fun () ->
        isend_body w comm dt buf pos count ~dst ~tag ~ctx req)
  else isend_body w comm dt buf pos count ~dst ~tag ~ctx req

let issend ?(pos = 0) ?count comm dt buf ~dst ~tag =
  let ctx = Msg.User in
  check ~ctx comm dt tag;
  let count = window_bounds ~what:"issend" dt buf pos count in
  let w = Comm.world comm in
  let req = Request.create w.World.engine in
  Observe.call ~ctx ~track:(Request req) P2p comm "MPI_Issend" @@ fun () ->
  let on_matched = ack_on_match w req { source = dst; tag; count } in
  ignore (inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched);
  req

let type_mismatch sdt rdt =
  Error (Errors.Type_mismatch { sent = Datatype.name sdt; expected = Datatype.name rdt })

(* Type- and capacity-check a matched envelope without a receive buffer —
   the large-count receive path, where [capacity] may exceed any
   allocatable array. *)
let verify_payload (type a b) (env : Msg.envelope) (rdt : (a, b) Datatype.gen) capacity :
    (Request.status, exn) result =
  let check : type c d. (c, d) Datatype.gen -> int -> (Request.status, exn) result =
   fun sdt n ->
    match Datatype.equal_witness sdt rdt with
    | None -> type_mismatch sdt rdt
    | Some Type.Equal ->
        if n > capacity then Error (Errors.Truncated { sent = n; capacity })
        else Ok { Request.source = env.src; tag = env.tag; count = n }
  in
  match env.payload with
  | Msg.Packed (sdt, data) -> check sdt (Datatype.length sdt data)
  | Msg.Sparse (sdt, n) -> check sdt n

(* Copy a matched envelope into the receive window, enforcing MPI's type
   and size rules; the copy is the datatype's own blit.  A sparse
   (non-materialized large-count) payload passes the same type and
   capacity checks but has no elements to copy. *)
let copy_payload (type a b) (env : Msg.envelope) (rdt : (a, b) Datatype.gen) (buf : b) pos capacity
    : (Request.status, exn) result =
  match env.payload with
  | Msg.Packed (sdt, data) -> (
      match Datatype.equal_witness sdt rdt with
      | None -> type_mismatch sdt rdt
      | Some Type.Equal ->
          let n = Datatype.length sdt data in
          if n > capacity then Error (Errors.Truncated { sent = n; capacity })
          else begin
            Datatype.blit sdt data 0 buf pos n;
            Ok { Request.source = env.src; tag = env.tag; count = n }
          end)
  | Msg.Sparse _ -> verify_payload env rdt capacity

(* Detect whether a receive from [src] can never be satisfied because the
   peer (or, for wildcards, some group member) has failed. *)
let dead_peer comm ~src =
  let w = Comm.world comm in
  if src = any_source then World.any_dead w (Comm.group comm)
  else begin
    let sw = Comm.world_rank_of comm src in
    if World.is_alive w sw then None else Some sw
  end

(* ------------------------------------------------------------------ *)
(* The receive core.  Every receive flavour first matches an envelope   *)
(* that already arrived ([take_arrived]) and otherwise posts            *)
(* ([post_recv]); both paths settle a match the same way.  A flavour    *)
(* keeps only how it waits, what it does about a dead peer, and how a   *)
(* match completes it.                                                  *)
(* ------------------------------------------------------------------ *)

(* How a flavour settles a match: the operation the checker and the
   tracer name, whether the payload is copied (a large-count receive only
   checks it), and what a successful match does to the request.  Built
   once per flavour (per partition for a partitioned receive), so a
   posted receive captures one word for all three. *)
type recv_kind = {
  op : string;
  copy : bool;
  complete : Request.t -> Request.status -> unit;
}

let recv_kind = { op = "MPI_Recv"; copy = true; complete = Request.complete }
let sparse_kind = { recv_kind with copy = false }
let irecv_kind = { recv_kind with op = "MPI_Irecv" }
let recv_init_kind = { recv_kind with op = "MPI_Recv_init" }

let settle comm k ~posted env dt buf pos capacity =
  Observe.matched comm ~op:k.op ~posted env
    (if k.copy then copy_payload env dt buf pos capacity else verify_payload env dt capacity)

let finish k req = function Ok st -> k.complete req st | Error e -> Request.abort req e

(* [take_arrived]'s answer when nothing matching has arrived yet. *)
exception Not_arrived

let not_arrived = Error Not_arrived

(* Match an envelope that already arrived, settle it and release it to
   the pool. *)
let take_arrived w comm mb k ~posted dt buf pos capacity ~src ~tag ~ctx =
  match
    Msg.take_unexpected ?choose:(World.match_chooser w) mb ~src ~tag ~comm:(Comm.id comm) ~ctx
  with
  | None -> not_arrived
  | Some env ->
      let settled = settle comm k ~posted env dt buf pos capacity in
      Msg.release w.World.env_pool env;
      settled

(* Post a receive whose match settles into [req]; returns it, so a
   persistent flavour can cancel it.  [deliver] and [on_fail] are one
   recursive definition, so they share one closure block. *)
let post_recv comm mb k ~posted dt buf pos capacity ~src ~tag ~ctx req =
  let rec deliver env =
    match settle comm k ~posted env dt buf pos capacity with
    | Ok st -> k.complete req st
    | Error e -> on_fail e
  and on_fail e = Request.abort req e in
  let pr =
    {
      Msg.want_src = src;
      want_tag = tag;
      want_comm = Comm.id comm;
      want_ctx = ctx;
      src_world = (if src = any_source then -1 else Comm.world_rank_of comm src);
      comm_group = Comm.group comm;
      deliver;
      on_fail;
      owner_world = my_world comm;
      live = true;
    }
  in
  Msg.post mb pr;
  pr

(* The blocking receive: a match that already arrived returns at once, a
   dead peer raises after the detection delay, else the fiber waits on a
   posted receive. *)
let recv_body w comm k dt buf pos capacity ~src ~tag ~ctx =
  charge_setup ~ctx comm;
  let posted = World.now w in
  let mb = w.World.mailboxes.(my_world comm) in
  match take_arrived w comm mb k ~posted dt buf pos capacity ~src ~tag ~ctx with
  | Ok st -> st
  | Error Not_arrived -> (
      match dead_peer comm ~src with
      | Some wr ->
          Engine.delay w.World.engine w.World.detection_delay;
          raise (Errors.Process_failed { world_rank = wr })
      | None ->
          let req = Request.create w.World.engine in
          ignore (post_recv comm mb k ~posted dt buf pos capacity ~src ~tag ~ctx req);
          Request.wait req)
  | Error e -> raise e

let recv ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~src ~tag =
  check ~recv:true ~ctx comm dt tag;
  let capacity = window_bounds ~what:"recv" dt buf pos count in
  let w = Comm.world comm in
  if Observe.p2p ~ctx comm "MPI_Recv" then
    Observe.span ~ctx P2p comm "MPI_Recv" (fun () ->
        recv_body w comm recv_kind dt buf pos capacity ~src ~tag ~ctx)
  else recv_body w comm recv_kind dt buf pos capacity ~src ~tag ~ctx

let irecv_body w comm dt buf pos capacity ~src ~tag ~ctx req =
  charge_setup ~ctx comm;
  let posted = World.now w in
  let mb = w.World.mailboxes.(my_world comm) in
  (match take_arrived w comm mb irecv_kind ~posted dt buf pos capacity ~src ~tag ~ctx with
  | Error Not_arrived -> (
      match dead_peer comm ~src with
      | Some wr ->
          Engine.schedule w.World.engine ~delay:w.World.detection_delay (fun () ->
              Request.abort req (Errors.Process_failed { world_rank = wr }))
      | None ->
          ignore (post_recv comm mb irecv_kind ~posted dt buf pos capacity ~src ~tag ~ctx req))
  | settled -> finish irecv_kind req settled);
  req

let irecv ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~src ~tag =
  check ~recv:true ~ctx comm dt tag;
  let capacity = window_bounds ~what:"irecv" dt buf pos count in
  let w = Comm.world comm in
  let req = Request.create w.World.engine in
  if Observe.p2p_request ~ctx comm "MPI_Irecv" req then
    Observe.span ~ctx P2p comm "MPI_Irecv" (fun () ->
        irecv_body w comm dt buf pos capacity ~src ~tag ~ctx req)
  else irecv_body w comm dt buf pos capacity ~src ~tag ~ctx req

let probe comm ~src ~tag =
  Comm.check_active comm;
  let w = Comm.world comm and ctx = Msg.User in
  Observe.call P2p comm "MPI_Probe" @@ fun () ->
  let mb = w.World.mailboxes.(my_world comm) in
  match Msg.peek_unexpected mb ~src ~tag ~comm:(Comm.id comm) ~ctx with
  | Some env -> { Request.source = env.Msg.src; tag = env.Msg.tag; count = env.Msg.count }
  | None -> begin
      match dead_peer comm ~src with
      | Some wr ->
          Engine.delay w.World.engine w.World.detection_delay;
          raise (Errors.Process_failed { world_rank = wr })
      | None ->
          Engine.suspend w.World.engine (fun resumer ->
              let notify (env : Msg.envelope) =
                Engine.resume resumer
                  { Request.source = env.src; tag = env.tag; count = env.count }
              in
              Msg.post_probe mb
                {
                  Msg.p_src = src;
                  p_tag = tag;
                  p_comm = Comm.id comm;
                  p_ctx = ctx;
                  p_src_world = (if src = any_source then -1 else Comm.world_rank_of comm src);
                  p_group = Comm.group comm;
                  notify;
                  p_on_fail = (fun e -> Engine.fail resumer e);
                  p_owner_world = my_world comm;
                  p_live = true;
                })
    end

let iprobe comm ~src ~tag =
  Comm.check_active comm;
  let w = Comm.world comm in
  (* an instantaneous poll: counted, but no span *)
  ignore (Observe.p2p ~ctx:User comm "MPI_Iprobe" : bool);
  let mb = w.World.mailboxes.(my_world comm) in
  Msg.peek_unexpected mb ~src ~tag ~comm:(Comm.id comm) ~ctx:User
  |> Option.map (fun (env : Msg.envelope) ->
         { Request.source = env.src; tag = env.tag; count = env.count })

let sendrecv comm dt ~send:sbuf ?(send_pos = 0) ?send_count ~dst ~stag ~recv:rbuf
    ?(recv_pos = 0) ?recv_count ~src ~rtag () =
  Observe.call P2p comm "MPI_Sendrecv" @@ fun () ->
  let sreq = isend ~pos:send_pos ?count:send_count comm dt sbuf ~dst ~tag:stag in
  let status = recv ~pos:recv_pos ?count:recv_count comm dt rbuf ~src ~tag:rtag in
  ignore (Request.wait sreq);
  status

let sendrecv_replace ?(pos = 0) ?count comm dt buf ~dst ~stag ~src ~rtag =
  Observe.call P2p comm "MPI_Sendrecv_replace" @@ fun () ->
  (* the outgoing data is snapshotted at injection time (the runtime copies
     payloads eagerly), so receiving into the same window is safe *)
  let sreq = isend ~pos ?count comm dt buf ~dst ~tag:stag in
  let status = recv ~pos ?count comm dt buf ~src ~tag:rtag in
  ignore (Request.wait sreq);
  status

(* ------------------------------------------------------------------ *)
(* Large-count (sparse-payload) transfers.                             *)
(* ------------------------------------------------------------------ *)

let send_sparse comm dt ~count ~dst ~tag =
  let ctx = Msg.User in
  check ~ctx comm dt tag;
  ignore (Datatype.bytes dt count) (* count >= 0 and byte size representable *);
  let w = Comm.world comm in
  Observe.call ~ctx P2p comm "MPI_Send" @@ fun () ->
  charge_setup ~ctx comm;
  let injected =
    inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched:None
      ~payload:(Msg.Sparse (dt, count))
  in
  Engine.delay w.World.engine (injected -. World.now w)

let recv_sparse comm dt ~capacity ~src ~tag =
  let ctx = Msg.User in
  check ~recv:true ~ctx comm dt tag;
  ignore (Datatype.bytes dt capacity);
  let w = Comm.world comm in
  Observe.call ~ctx P2p comm "MPI_Recv" @@ fun () ->
  recv_body w comm sparse_kind dt (Datatype.empty dt) 0 capacity ~src ~tag ~ctx

(* ------------------------------------------------------------------ *)
(* Persistent operations (MPI-4 §3.9).                                 *)
(*                                                                     *)
(* All validation — communicator, tag, window bounds, datatype commit, *)
(* peer-rank range — plus the per-call setup cost and checker          *)
(* registration happen once here at init.  [start] reuses the          *)
(* validated fast path ([inject_raw] / the posted-receive machinery    *)
(* with the world's pooled envelopes) and charges nothing.             *)
(* ------------------------------------------------------------------ *)

(* Build a persistent handle whose waits are spans, and observe its init;
   the init call's span covers the per-call setup cost. *)
let persistent comm op ?partitions ?pready ?parrived ?cancel start =
  let h =
    Persist.make (Comm.world comm).World.engine ~op ?partitions ?pready ?parrived ?cancel
      ~around_wait:(fun _ f -> Observe.span ~ctx:User P2p comm "MPI_Wait" f)
      start
  in
  Observe.call ~track:(Persistent h) P2p comm op (fun () ->
      charge_setup ~ctx:User comm;
      h)

(* A persistent round's dead-peer abort after the detection delay.  The
   round guard keeps it inert if the handle was restarted (or cancelled
   and restarted) before it fires: it belongs to a dead round then. *)
let abort_round w h ~world_rank =
  let round = Persist.starts h in
  Engine.schedule w.World.engine ~delay:w.World.detection_delay (fun () ->
      if Persist.starts h = round && Persist.is_active h then
        Request.abort (Persist.request h) (Errors.Process_failed { world_rank }))

let send_init_gen ~sync ?(pos = 0) ?count comm dt buf ~dst ~tag =
  let op = if sync then "MPI_Ssend_init" else "MPI_Send_init" and ctx = Msg.User in
  check ~ctx comm dt tag;
  let count = window_bounds ~what:op dt buf pos count in
  let w = Comm.world comm in
  ignore (Comm.world_rank_of comm dst);
  let st = { Request.source = dst; tag; count } in
  let start h =
    Comm.check_active comm;
    Observe.span ~ctx P2p comm "MPI_Start" @@ fun () ->
    let req = Persist.request h in
    let on_matched = if sync then ack_on_match w req st else None in
    let injected =
      inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched ~payload:(Msg.pack dt buf pos count)
    in
    if not sync then complete_at w req st injected
  in
  persistent comm op start

let send_init ?pos ?count comm dt buf ~dst ~tag =
  send_init_gen ~sync:false ?pos ?count comm dt buf ~dst ~tag

let ssend_init ?pos ?count comm dt buf ~dst ~tag =
  send_init_gen ~sync:true ?pos ?count comm dt buf ~dst ~tag

let recv_init ?(pos = 0) ?count comm dt buf ~src ~tag =
  let op = "MPI_Recv_init" and ctx = Msg.User in
  check ~recv:true ~ctx comm dt tag;
  let capacity = window_bounds ~what:op dt buf pos count in
  let w = Comm.world comm in
  if src <> any_source then ignore (Comm.world_rank_of comm src);
  let mb = w.World.mailboxes.(my_world comm) in
  (* the posted receive of the active round, so [cancel] can retire a
     standing channel that will never be matched again *)
  let current = ref None in
  let start h =
    Comm.check_active comm;
    Observe.span ~ctx P2p comm "MPI_Start" @@ fun () ->
    let req = Persist.request h in
    current := None;
    let posted = World.now w in
    let k = recv_init_kind in
    match take_arrived w comm mb k ~posted dt buf pos capacity ~src ~tag ~ctx with
    | Error Not_arrived -> (
        match dead_peer comm ~src with
        | Some world_rank -> abort_round w h ~world_rank
        | None ->
            current := Some (post_recv comm mb k ~posted dt buf pos capacity ~src ~tag ~ctx req))
    | settled -> finish k req settled
  in
  let cancel h =
    Option.iter (Msg.cancel mb) !current;
    (* park the round's request failed so a later [start] can rearm it;
       the handle is inactive after cancel, so nothing observes [Exit] *)
    Request.abort (Persist.request h) Exit
  in
  persistent comm op ~cancel start

(* ------------------------------------------------------------------ *)
(* Partitioned communication (MPI-4 §4).                               *)
(*                                                                     *)
(* Each partition travels as one internal-context message; the tag     *)
(* packs (user tag, partition index) below the collective tag space so *)
(* partition traffic can never cross-match user or collective          *)
(* messages.  Partitions progress independently on the engine's event  *)
(* queue; the round's request completes when the last one does.        *)
(* ------------------------------------------------------------------ *)

let max_partitions = 1024
let ptag ~tag i = -(1 lsl 21) - (tag lsl 10) - i

let check_partitioned ~op ~partitions ~count dt buf =
  if partitions <= 0 || partitions > max_partitions then
    Errors.usage "%s: partitions %d out of range [1, %d]" op partitions max_partitions;
  if count < 0 then Errors.usage "%s: negative per-partition count %d" op count;
  if partitions * count > Datatype.length dt buf then
    Errors.usage "%s: %d partitions of %d elements exceed buffer of length %d" op partitions
      count (Datatype.length dt buf)

let psend_init comm dt buf ~partitions ~count ~dst ~tag =
  let op = "MPI_Psend_init" and ctx = Msg.User in
  check ~ctx comm dt tag;
  check_partitioned ~op ~partitions ~count dt buf;
  let w = Comm.world comm in
  ignore (Comm.world_rank_of comm dst);
  let readied = Array.make partitions false in
  let remaining = ref partitions in
  let start _h =
    Comm.check_active comm;
    Observe.span ~ctx P2p comm "MPI_Start" @@ fun () ->
    Array.fill readied 0 partitions false;
    remaining := partitions
  in
  let pready h i =
    Comm.check_active comm;
    if readied.(i) then Errors.usage "%s: partition %d readied twice" op i;
    Observe.span ~ctx P2p comm "MPI_Pready" @@ fun () ->
    readied.(i) <- true;
    let injected =
      inject_raw comm dt ~count ~dst ~tag:(ptag ~tag i) ~ctx:Msg.Internal ~on_matched:None
        ~payload:(Msg.pack dt buf (i * count) count)
    in
    decr remaining;
    if !remaining = 0 then
      (* egress injections serialize, so the last pready's injection time
         bounds them all *)
      complete_at w (Persist.request h) { source = dst; tag; count = partitions * count } injected
  in
  persistent comm op ~partitions ~pready start

let precv_init comm dt buf ~partitions ~count ~src ~tag =
  let op = "MPI_Precv_init" and ctx = Msg.User in
  check ~ctx comm dt tag;
  if src = any_source then Errors.usage "MPI_Precv_init: wildcard source is not allowed";
  check_partitioned ~op ~partitions ~count dt buf;
  let w = Comm.world comm in
  ignore (Comm.world_rank_of comm src);
  let mb = w.World.mailboxes.(my_world comm) in
  let arrived = Array.make partitions false in
  let missing = Array.make partitions false in
  let pendings : Msg.pending_recv option array = Array.make partitions None in
  (* the partition counter: a partition's match completes the round's
     request once every partition has arrived *)
  let remaining = ref partitions in
  let whole = { Request.source = src; tag; count = partitions * count } in
  let kinds =
    Array.init partitions (fun i ->
        let complete req _ =
          arrived.(i) <- true;
          decr remaining;
          if !remaining = 0 && not (Request.is_failed req) then Request.complete req whole
        in
        { op; copy = true; complete })
  in
  let start h =
    Comm.check_active comm;
    Observe.span ~ctx P2p comm "MPI_Start" @@ fun () ->
    let req = Persist.request h in
    Array.fill arrived 0 partitions false;
    Array.fill pendings 0 partitions None;
    remaining := partitions;
    let posted = World.now w in
    (* partitions that arrived before the sender died still match; the
       round fails only if one is missing from a dead peer *)
    for i = 0 to partitions - 1 do
      let tag = ptag ~tag i and pos = i * count and ctx = Msg.Internal in
      match take_arrived w comm mb kinds.(i) ~posted dt buf pos count ~src ~tag ~ctx with
      | Error Not_arrived -> missing.(i) <- true
      | settled ->
          missing.(i) <- false;
          finish kinds.(i) req settled
    done;
    if Array.exists Fun.id missing then
      match dead_peer comm ~src with
      | Some world_rank -> abort_round w h ~world_rank
      | None ->
          for i = 0 to partitions - 1 do
            if missing.(i) then
              pendings.(i) <-
                Some
                  (post_recv comm mb kinds.(i) ~posted dt buf (i * count) count ~src
                     ~tag:(ptag ~tag i) ~ctx:Msg.Internal req)
          done
  in
  let parrived _h i = arrived.(i) in
  let cancel h =
    Array.iter (Option.iter (Msg.cancel mb)) pendings;
    Request.abort (Persist.request h) Exit
  in
  persistent comm op ~partitions ~parrived ~cancel start
