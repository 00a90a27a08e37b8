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

let window_bounds ~what buf pos count =
  let len = Array.length buf in
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
  let count = window_bounds ~what:"send" buf pos count in
  let w = Comm.world comm in
  if Observe.p2p ~ctx comm "MPI_Send" then
    Observe.span ~ctx P2p comm "MPI_Send" (fun () ->
        send_body w comm dt buf pos count ~dst ~tag ~ctx)
  else send_body w comm dt buf pos count ~dst ~tag ~ctx

let isend_body w comm dt buf pos count ~dst ~tag ~ctx req =
  let injected = inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched:None in
  let st = { Request.source = dst; tag; count } in
  Engine.schedule w.World.engine
    ~delay:(injected -. World.now w)
    (fun () -> Request.complete req st);
  req

let isend ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  check ~ctx comm dt tag;
  let count = window_bounds ~what:"isend" buf pos count in
  let w = Comm.world comm in
  let req = Request.create w.World.engine in
  if Observe.p2p_request ~ctx comm "MPI_Isend" req then
    Observe.span ~ctx P2p comm "MPI_Isend" (fun () ->
        isend_body w comm dt buf pos count ~dst ~tag ~ctx req)
  else isend_body w comm dt buf pos count ~dst ~tag ~ctx req

let issend ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  check ~ctx comm dt tag;
  let count = window_bounds ~what:"issend" buf pos count in
  let w = Comm.world comm in
  let req = Request.create w.World.engine in
  Observe.call ~ctx ~track:(Request req) P2p comm "MPI_Issend" @@ fun () ->
  let latency = (Netmodel.params w.World.net).latency in
  let on_matched =
    Some
      (fun () ->
        (* The acknowledgment travels back to the sender. *)
        Engine.schedule w.World.engine ~delay:latency (fun () ->
            Request.complete req { source = dst; tag; count }))
  in
  ignore (inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched);
  req

let type_mismatch sdt rdt =
  Error (Errors.Type_mismatch { sent = Datatype.name sdt; expected = Datatype.name rdt })

(* Type- and capacity-check a matched envelope without a receive buffer —
   the large-count receive path, where [capacity] may exceed any
   allocatable array. *)
let verify_payload (type a) (env : Msg.envelope) (rdt : a Datatype.t) capacity :
    (Request.status, exn) result =
  let check : type b. b Datatype.t -> int -> (Request.status, exn) result =
   fun sdt n ->
    match Datatype.equal_witness sdt rdt with
    | None -> type_mismatch sdt rdt
    | Some Type.Equal ->
        if n > capacity then Error (Errors.Truncated { sent = n; capacity })
        else Ok { Request.source = env.src; tag = env.tag; count = n }
  in
  match env.payload with
  | Msg.Packed (sdt, data) -> check sdt (Array.length data)
  | Msg.Serialized data -> check Datatype.serialized (Bytes.length data)
  | Msg.Sparse (sdt, n) -> check sdt n

(* Copy a matched envelope into the receive window, enforcing MPI's type
   and size rules.  A serialized payload is unpacked from its bytes; a
   sparse (non-materialized large-count) payload passes the same type and
   capacity checks but has no elements to copy. *)
let copy_payload (type a) (env : Msg.envelope) (rdt : a Datatype.t) (buf : a array) pos capacity :
    (Request.status, exn) result =
  match env.payload with
  | Msg.Packed (sdt, data) -> (
      match Datatype.equal_witness sdt rdt with
      | None -> type_mismatch sdt rdt
      | Some Type.Equal ->
          let n = Array.length data in
          if n > capacity then Error (Errors.Truncated { sent = n; capacity })
          else begin
            Array.blit data 0 buf pos n;
            Ok { Request.source = env.src; tag = env.tag; count = n }
          end)
  | Msg.Serialized data -> (
      match Datatype.equal_witness Datatype.serialized rdt with
      | None -> type_mismatch Datatype.serialized rdt
      | Some Type.Equal ->
          let n = Bytes.length data in
          if n > capacity then Error (Errors.Truncated { sent = n; capacity })
          else begin
            for i = 0 to n - 1 do
              buf.(pos + i) <- Bytes.unsafe_get data i
            done;
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

let make_pending comm ~src ~tag ~ctx ~deliver ~on_fail : Msg.pending_recv =
  {
    Msg.want_src = src;
    want_tag = tag;
    want_comm = Comm.id comm;
    want_ctx = ctx;
    src_world = (if src = any_source then -1 else Comm.world_rank_of comm src);
    comm_group = Comm.group comm;
    deliver;
    on_fail;
    owner_world = Comm.world_rank_of comm (Comm.rank comm);
    live = true;
  }

let recv_body w comm dt buf pos capacity ~src ~tag ~ctx =
  charge_setup ~ctx comm;
  let posted = World.now w in
  let mb = w.World.mailboxes.(my_world comm) in
  match
    Msg.take_unexpected ?choose:(World.match_chooser w) mb ~src ~tag ~comm:(Comm.id comm) ~ctx
  with
  | Some env -> begin
      let copied =
        Observe.matched comm ~op:"MPI_Recv" ~posted env (copy_payload env dt buf pos capacity)
      in
      Msg.release w.World.env_pool env;
      match copied with Ok st -> st | Error e -> raise e
    end
  | None -> begin
      match dead_peer comm ~src with
      | Some wr ->
          Engine.delay w.World.engine w.World.detection_delay;
          raise (Errors.Process_failed { world_rank = wr })
      | None ->
          Engine.suspend w.World.engine (fun resumer ->
              let deliver env =
                match
                  Observe.matched comm ~op:"MPI_Recv" ~posted env
                    (copy_payload env dt buf pos capacity)
                with
                | Ok st -> Engine.resume resumer st
                | Error e -> Engine.fail resumer e
              in
              let on_fail e = Engine.fail resumer e in
              Msg.post mb (make_pending comm ~src ~tag ~ctx ~deliver ~on_fail))
    end

let recv ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~src ~tag =
  check ~recv:true ~ctx comm dt tag;
  let capacity = window_bounds ~what:"recv" buf pos count in
  let w = Comm.world comm in
  if Observe.p2p ~ctx comm "MPI_Recv" then
    Observe.span ~ctx P2p comm "MPI_Recv" (fun () ->
        recv_body w comm dt buf pos capacity ~src ~tag ~ctx)
  else recv_body w comm dt buf pos capacity ~src ~tag ~ctx

let irecv_body w comm dt buf pos capacity ~src ~tag ~ctx req =
  charge_setup ~ctx comm;
  let posted = World.now w in
  let mb = w.World.mailboxes.(my_world comm) in
  (match
     Msg.take_unexpected ?choose:(World.match_chooser w) mb ~src ~tag ~comm:(Comm.id comm) ~ctx
   with
  | Some env -> begin
      let copied =
        Observe.matched comm ~op:"MPI_Irecv" ~posted env (copy_payload env dt buf pos capacity)
      in
      Msg.release w.World.env_pool env;
      match copied with Ok st -> Request.complete req st | Error e -> Request.abort req e
    end
  | None -> begin
      match dead_peer comm ~src with
      | Some wr ->
          Engine.schedule w.World.engine ~delay:w.World.detection_delay (fun () ->
              Request.abort req (Errors.Process_failed { world_rank = wr }))
      | None ->
          let deliver env =
            match
              Observe.matched comm ~op:"MPI_Irecv" ~posted env
                (copy_payload env dt buf pos capacity)
            with
            | Ok st -> Request.complete req st
            | Error e -> Request.abort req e
          in
          let on_fail e = Request.abort req e in
          Msg.post mb (make_pending comm ~src ~tag ~ctx ~deliver ~on_fail)
    end);
  req

let irecv ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~src ~tag =
  check ~recv:true ~ctx comm dt tag;
  let capacity = window_bounds ~what:"irecv" buf pos count in
  let w = Comm.world comm in
  let req = Request.create w.World.engine in
  if Observe.p2p_request ~ctx comm "MPI_Irecv" req then
    Observe.span ~ctx P2p comm "MPI_Irecv" (fun () ->
        irecv_body w comm dt buf pos capacity ~src ~tag ~ctx req)
  else irecv_body w comm dt buf pos capacity ~src ~tag ~ctx req

let probe ?(ctx = Msg.User) comm ~src ~tag =
  Comm.check_active comm;
  let w = Comm.world comm in
  Observe.call ~ctx P2p comm "MPI_Probe" @@ fun () ->
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

let iprobe ?(ctx = Msg.User) comm ~src ~tag =
  Comm.check_active comm;
  let w = Comm.world comm in
  (* an instantaneous poll: counted, but no span *)
  ignore (Observe.p2p ~ctx comm "MPI_Iprobe" : bool);
  let mb = w.World.mailboxes.(my_world comm) in
  Msg.peek_unexpected mb ~src ~tag ~comm:(Comm.id comm) ~ctx
  |> Option.map (fun (env : Msg.envelope) ->
         { Request.source = env.src; tag = env.tag; count = env.count })

let sendrecv ?(ctx = Msg.User) comm dt ~send:sbuf ?(send_pos = 0) ?send_count ~dst ~stag ~recv:rbuf
    ?(recv_pos = 0) ?recv_count ~src ~rtag () =
  Observe.call ~ctx P2p comm "MPI_Sendrecv" @@ fun () ->
  let sreq = isend ~ctx ~pos:send_pos ?count:send_count comm dt sbuf ~dst ~tag:stag in
  let status = recv ~ctx ~pos:recv_pos ?count:recv_count comm dt rbuf ~src ~tag:rtag in
  ignore (Request.wait sreq);
  status

let sendrecv_replace ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~stag ~src ~rtag =
  Observe.call ~ctx P2p comm "MPI_Sendrecv_replace" @@ fun () ->
  (* the outgoing data is snapshotted at injection time (the runtime copies
     payloads eagerly), so receiving into the same window is safe *)
  let sreq = isend ~ctx ~pos ?count comm dt buf ~dst ~tag:stag in
  let status = recv ~ctx ~pos ?count comm dt buf ~src ~tag:rtag in
  ignore (Request.wait sreq);
  status

(* ------------------------------------------------------------------ *)
(* Large-count (sparse-payload) transfers.                             *)
(* ------------------------------------------------------------------ *)

let send_sparse ?(ctx = Msg.User) comm dt ~count ~dst ~tag =
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

let recv_sparse ?(ctx = Msg.User) comm dt ~capacity ~src ~tag =
  check ~recv:true ~ctx comm dt tag;
  ignore (Datatype.bytes dt capacity);
  let w = Comm.world comm in
  Observe.call ~ctx P2p comm "MPI_Recv" @@ fun () ->
  charge_setup ~ctx comm;
  let posted = World.now w in
  let mb = w.World.mailboxes.(my_world comm) in
  match
    Msg.take_unexpected ?choose:(World.match_chooser w) mb ~src ~tag ~comm:(Comm.id comm) ~ctx
  with
  | Some env -> begin
      let checked =
        Observe.matched comm ~op:"MPI_Recv" ~posted env (verify_payload env dt capacity)
      in
      Msg.release w.World.env_pool env;
      match checked with Ok st -> st | Error e -> raise e
    end
  | None -> begin
      match dead_peer comm ~src with
      | Some wr ->
          Engine.delay w.World.engine w.World.detection_delay;
          raise (Errors.Process_failed { world_rank = wr })
      | None ->
          Engine.suspend w.World.engine (fun resumer ->
              let deliver env =
                match
                  Observe.matched comm ~op:"MPI_Recv" ~posted env (verify_payload env dt capacity)
                with
                | Ok st -> Engine.resume resumer st
                | Error e -> Engine.fail resumer e
              in
              let on_fail e = Engine.fail resumer e in
              Msg.post mb (make_pending comm ~src ~tag ~ctx ~deliver ~on_fail))
    end

(* ------------------------------------------------------------------ *)
(* Persistent operations (MPI-4 §3.9).                                 *)
(*                                                                     *)
(* All validation — communicator, tag, window bounds, datatype commit, *)
(* peer-rank range — plus the per-call setup cost and checker          *)
(* registration happen once here at init.  [start] reuses the          *)
(* validated fast path ([inject_raw] / the posted-receive machinery    *)
(* with the world's pooled envelopes) and charges nothing.             *)
(* ------------------------------------------------------------------ *)

(* Observe a persistent init once its handle is built; the call's span
   covers the per-call setup cost. *)
let observe_init ~ctx comm op h =
  Observe.call ~ctx ~track:(Persistent h) P2p comm op (fun () ->
      charge_setup ~ctx comm;
      h)

let send_init_gen ~sync ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  let op = if sync then "MPI_Ssend_init" else "MPI_Send_init" in
  check ~ctx comm dt tag;
  let count = window_bounds ~what:op buf pos count in
  let w = Comm.world comm in
  ignore (Comm.world_rank_of comm dst);
  let latency = (Netmodel.params w.World.net).Netmodel.latency in
  let st = { Request.source = dst; tag; count } in
  let start h =
    Comm.check_active comm;
    Observe.span ~ctx P2p comm "MPI_Start" @@ fun () ->
    let req = Persist.request h in
    let on_matched =
      if sync then
        Some
          (fun () ->
            (* synchronous mode: complete when the matching ack returns *)
            Engine.schedule w.World.engine ~delay:latency (fun () -> Request.complete req st))
      else None
    in
    let injected =
      inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched
        ~payload:(Msg.pack dt buf pos count)
    in
    if not sync then
      Engine.schedule w.World.engine
        ~delay:(injected -. World.now w)
        (fun () -> Request.complete req st)
  in
  let h =
    Persist.make w.World.engine ~op
      ~around_wait:(fun _ f -> Observe.span ~ctx P2p comm "MPI_Wait" f)
      start
  in
  observe_init ~ctx comm op h

let send_init ?ctx ?pos ?count comm dt buf ~dst ~tag =
  send_init_gen ~sync:false ?ctx ?pos ?count comm dt buf ~dst ~tag

let ssend_init ?ctx ?pos ?count comm dt buf ~dst ~tag =
  send_init_gen ~sync:true ?ctx ?pos ?count comm dt buf ~dst ~tag

let recv_init ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~src ~tag =
  let op = "MPI_Recv_init" in
  check ~recv:true ~ctx comm dt tag;
  let capacity = window_bounds ~what:op buf pos count in
  let w = Comm.world comm in
  if src <> any_source then ignore (Comm.world_rank_of comm src);
  let mb = w.World.mailboxes.(my_world comm) in
  (* the live posted receive of the active round, so [cancel] can retire a
     standing channel that will never be matched again *)
  let current = ref None in
  let start h =
    Comm.check_active comm;
    Observe.span ~ctx P2p comm "MPI_Start" @@ fun () ->
    let req = Persist.request h in
    current := None;
    let posted = World.now w in
    match
      Msg.take_unexpected ?choose:(World.match_chooser w) mb ~src ~tag ~comm:(Comm.id comm) ~ctx
    with
    | Some env -> begin
        let copied = Observe.matched comm ~op ~posted env (copy_payload env dt buf pos capacity) in
        Msg.release w.World.env_pool env;
        match copied with Ok st -> Request.complete req st | Error e -> Request.abort req e
      end
    | None -> begin
        match dead_peer comm ~src with
        | Some wr ->
            (* round guard: if the handle was restarted (or cancelled and
               restarted) before the detection delay elapses, this callback
               belongs to a dead round and must not touch the request *)
            let round = Persist.starts h in
            Engine.schedule w.World.engine ~delay:w.World.detection_delay (fun () ->
                if Persist.starts h = round && Persist.is_active h then
                  Request.abort req (Errors.Process_failed { world_rank = wr }))
        | None ->
            let deliver env =
              current := None;
              match Observe.matched comm ~op ~posted env (copy_payload env dt buf pos capacity) with
              | Ok st -> Request.complete req st
              | Error e -> Request.abort req e
            in
            let on_fail e =
              current := None;
              Request.abort req e
            in
            let pr = make_pending comm ~src ~tag ~ctx ~deliver ~on_fail in
            current := Some pr;
            Msg.post mb pr
      end
  in
  let cancel h =
    (match !current with Some pr -> Msg.cancel mb pr | None -> ());
    current := None;
    (* park the round's request failed so a later [start] can rearm it;
       the handle is inactive after cancel, so nothing observes [Exit] *)
    Request.abort (Persist.request h) Exit
  in
  let h =
    Persist.make w.World.engine ~op ~cancel
      ~around_wait:(fun _ f -> Observe.span ~ctx P2p comm "MPI_Wait" f)
      start
  in
  observe_init ~ctx comm op h

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

let check_partitioned ~op ~partitions ~count buf =
  if partitions <= 0 || partitions > max_partitions then
    Errors.usage "%s: partitions %d out of range [1, %d]" op partitions max_partitions;
  if count < 0 then Errors.usage "%s: negative per-partition count %d" op count;
  if partitions * count > Array.length buf then
    Errors.usage "%s: %d partitions of %d elements exceed buffer of length %d" op partitions
      count (Array.length buf)

let psend_init ?(ctx = Msg.User) comm dt buf ~partitions ~count ~dst ~tag =
  check ~ctx comm dt tag;
  let op = "MPI_Psend_init" in
  check_partitioned ~op ~partitions ~count buf;
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
    let req = Persist.request h in
    let injected =
      inject_raw comm dt ~count ~dst ~tag:(ptag ~tag i) ~ctx:Msg.Internal ~on_matched:None
        ~payload:(Msg.pack dt buf (i * count) count)
    in
    decr remaining;
    if !remaining = 0 then
      (* egress injections serialize, so the last pready's injection time
         bounds them all *)
      Engine.schedule w.World.engine
        ~delay:(injected -. World.now w)
        (fun () -> Request.complete req { source = dst; tag; count = partitions * count })
  in
  let h =
    Persist.make w.World.engine ~op ~partitions ~pready
      ~around_wait:(fun _ f -> Observe.span ~ctx P2p comm "MPI_Wait" f)
      start
  in
  observe_init ~ctx comm op h

let precv_init ?(ctx = Msg.User) comm dt buf ~partitions ~count ~src ~tag =
  check ~ctx comm dt tag;
  if src = any_source then Errors.usage "MPI_Precv_init: wildcard source is not allowed";
  let op = "MPI_Precv_init" in
  check_partitioned ~op ~partitions ~count buf;
  let w = Comm.world comm in
  ignore (Comm.world_rank_of comm src);
  let mb = w.World.mailboxes.(my_world comm) in
  let arrived = Array.make partitions false in
  let pendings : Msg.pending_recv option array = Array.make partitions None in
  let start h =
    Comm.check_active comm;
    Observe.span ~ctx P2p comm "MPI_Start" @@ fun () ->
    let req = Persist.request h in
    Array.fill arrived 0 partitions false;
    Array.fill pendings 0 partitions None;
    let posted = World.now w in
    let remaining = ref partitions in
    let finish_one i =
      arrived.(i) <- true;
      pendings.(i) <- None;
      decr remaining;
      if !remaining = 0 && not (Request.is_failed req) then
        Request.complete req { source = src; tag; count = partitions * count }
    in
    match dead_peer comm ~src with
    | Some wr ->
        let round = Persist.starts h in
        Engine.schedule w.World.engine ~delay:w.World.detection_delay (fun () ->
            if Persist.starts h = round && Persist.is_active h then
              Request.abort req (Errors.Process_failed { world_rank = wr }))
    | None ->
        for i = 0 to partitions - 1 do
          let tag_i = ptag ~tag i in
          match Msg.take_unexpected mb ~src ~tag:tag_i ~comm:(Comm.id comm) ~ctx:Msg.Internal with
          | Some env -> begin
              let copied =
                Observe.matched comm ~op ~posted env (copy_payload env dt buf (i * count) count)
              in
              Msg.release w.World.env_pool env;
              match copied with Ok _ -> finish_one i | Error e -> Request.abort req e
            end
          | None ->
              let deliver env =
                match
                  Observe.matched comm ~op ~posted env (copy_payload env dt buf (i * count) count)
                with
                | Ok _ -> finish_one i
                | Error e -> Request.abort req e
              in
              let on_fail e =
                pendings.(i) <- None;
                Request.abort req e
              in
              let pr = make_pending comm ~src ~tag:tag_i ~ctx:Msg.Internal ~deliver ~on_fail in
              pendings.(i) <- Some pr;
              Msg.post mb pr
        done
  in
  let parrived _h i = arrived.(i) in
  let cancel h =
    Array.iteri
      (fun i pr ->
        (match pr with Some pr -> Msg.cancel mb pr | None -> ());
        pendings.(i) <- None)
      pendings;
    Request.abort (Persist.request h) Exit
  in
  let h =
    Persist.make w.World.engine ~op ~partitions ~parrived ~cancel
      ~around_wait:(fun _ f -> Observe.span ~ctx P2p comm "MPI_Wait" f)
      start
  in
  observe_init ~ctx comm op h
