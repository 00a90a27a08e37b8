let any_source = -1
let any_tag = -1

type ctx = User | Internal
type packed =
  | Packed : ('a, 'b) Datatype.gen * 'b -> packed
  | Sparse : ('a, 'b) Datatype.gen * int -> packed

let pack dt buf pos count = Packed (dt, Datatype.sub dt buf pos count)

(* Envelopes are mutable so the runtime can recycle them through a
   free-list pool: at 10k+ ranks the per-message envelope allocation was
   a measurable share of minor-heap churn.  [pooled] guards against
   double-release; an envelope sitting in the free list must never be
   read. *)
type envelope = {
  mutable src : int;
  mutable src_world : int;
  mutable tag : int;
  mutable comm_id : int;
  mutable ctx : ctx;
  mutable count : int;
  mutable bytes : int;
  mutable sent_at : float;
  mutable payload : packed;
  mutable on_matched : (unit -> unit) option;
  mutable trace : Trace.Event.message option;
  mutable pooled : bool;
}

type pending_recv = {
  want_src : int;
  want_tag : int;
  want_comm : int;
  want_ctx : ctx;
  src_world : int;
  comm_group : int array;
  deliver : envelope -> unit;
  on_fail : exn -> unit;
  owner_world : int;
  mutable live : bool;
}

type probe_waiter = {
  p_src : int;
  p_tag : int;
  p_comm : int;
  p_ctx : ctx;
  p_src_world : int;
  p_group : int array;
  notify : envelope -> unit;
  p_on_fail : exn -> unit;
  p_owner_world : int;
  mutable p_live : bool;
}

(* Posted receives sit in one array-backed FIFO: [posted.(lo .. hi - 1)]
   is the window in post order.  A receive that is matched, failed or
   cancelled is overwritten in place with [vacant], and the window shrinks
   past vacant slots at either end.  Every slot outside the window holds
   [vacant] too, so the queue never keeps a retired receive's [deliver]
   closure (and the receive buffer it captures) reachable. *)
type mailbox = {
  unexpected : envelope Ds.Vec.t;
  mutable posted : pending_recv array;
  mutable lo : int;
  mutable hi : int;
  mutable probes : probe_waiter list;
}

let vacant =
  {
    want_src = any_source;
    want_tag = any_tag;
    want_comm = -1;
    want_ctx = Internal;
    src_world = -1;
    comm_group = [||];
    deliver = ignore;
    on_fail = ignore;
    owner_world = -1;
    live = false;
  }

let create () = { unexpected = Ds.Vec.create (); posted = [||]; lo = 0; hi = 0; probes = [] }

(* {2 Envelope pool} *)

type pool = { free : envelope Ds.Vec.t; mutable made : int; mutable reused : int }

let create_pool () = { free = Ds.Vec.create (); made = 0; reused = 0 }

let empty_payload = Packed (Datatype.int, [||])

let make_envelope pool ~src ~src_world ~tag ~comm_id ~ctx ~count ~bytes ~sent_at ~payload
    ~on_matched ~trace =
  if Ds.Vec.is_empty pool.free then begin
    pool.made <- pool.made + 1;
    { src; src_world; tag; comm_id; ctx; count; bytes; sent_at; payload; on_matched; trace;
      pooled = false }
  end
  else begin
    pool.reused <- pool.reused + 1;
    let e = Ds.Vec.pop pool.free in
    e.pooled <- false;
    e.src <- src;
    e.src_world <- src_world;
    e.tag <- tag;
    e.comm_id <- comm_id;
    e.ctx <- ctx;
    e.count <- count;
    e.bytes <- bytes;
    e.sent_at <- sent_at;
    e.payload <- payload;
    e.on_matched <- on_matched;
    e.trace <- trace;
    e
  end

let release pool env =
  if not env.pooled then begin
    env.pooled <- true;
    (* drop payload / closure / trace references so the pool retains no
       dead data between messages *)
    env.payload <- empty_payload;
    env.on_matched <- None;
    env.trace <- None;
    Ds.Vec.push pool.free env
  end

let pool_stats pool = (pool.made, pool.reused)

let matches pr env =
  pr.want_comm = env.comm_id
  && pr.want_ctx = env.ctx
  && (pr.want_src = any_source || pr.want_src = env.src)
  && (pr.want_tag = any_tag || pr.want_tag = env.tag)

let pattern_matches ~src ~tag ~comm ~ctx env =
  comm = env.comm_id
  && ctx = env.ctx
  && (src = any_source || src = env.src)
  && (tag = any_tag || tag = env.tag)

let probe_matches pw env =
  pw.p_comm = env.comm_id
  && pw.p_ctx = env.ctx
  && (pw.p_src = any_source || pw.p_src = env.src)
  && (pw.p_tag = any_tag || pw.p_tag = env.tag)

(* {2 Posted-receive queue} *)

(* Shrink the window past retired slots at both ends; an emptied window
   restarts at slot 0. *)
let trim mb =
  let q = mb.posted in
  while mb.lo < mb.hi && not q.(mb.lo).live do
    q.(mb.lo) <- vacant;
    mb.lo <- mb.lo + 1
  done;
  while mb.hi > mb.lo && not q.(mb.hi - 1).live do
    q.(mb.hi - 1) <- vacant;
    mb.hi <- mb.hi - 1
  done;
  if mb.lo = mb.hi then begin
    mb.lo <- 0;
    mb.hi <- 0
  end

let vacate mb i =
  mb.posted.(i) <- vacant;
  trim mb

(* Pack the live receives that [keep] accepts to the front of the array,
   in post order, and return the live ones it rejects, in post order.
   Retired slots are dropped on the way. *)
let filter_posted mb keep =
  let q = mb.posted in
  let w = ref 0 and rejected = ref [] in
  for i = mb.lo to mb.hi - 1 do
    let pr = q.(i) in
    if pr.live then
      if keep pr then begin
        q.(!w) <- pr;
        incr w
      end
      else rejected := pr :: !rejected
  done;
  Array.fill q !w (mb.hi - !w) vacant;
  mb.lo <- 0;
  mb.hi <- !w;
  List.rev !rejected

let post mb pr =
  if mb.hi = Array.length mb.posted then begin
    (* Full: pack the live receives, and double the array when they fill
       half of it or more.  Posting stays amortized O(1), and the window a
       scan crosses never exceeds twice the peak number of live receives. *)
    ignore (filter_posted mb (fun _ -> true));
    let cap = Array.length mb.posted in
    if 2 * mb.hi >= cap then begin
      let q = Array.make (max 8 (2 * cap)) vacant in
      Array.blit mb.posted 0 q 0 mb.hi;
      mb.posted <- q
    end
  end;
  mb.posted.(mb.hi) <- pr;
  mb.hi <- mb.hi + 1

(* The first live posted receive matching [env], in post order, or -1. *)
let rec find_posted mb env i =
  if i >= mb.hi then -1
  else
    let pr = mb.posted.(i) in
    if pr.live && matches pr env then i else find_posted mb env (i + 1)

let cancel mb pr =
  if pr.live then begin
    pr.live <- false;
    let rec go i = if i < mb.hi then if mb.posted.(i) == pr then vacate mb i else go (i + 1) in
    go mb.lo
  end

let arrive pool mb env =
  (* Probe waiters observe the message without consuming it. *)
  (match mb.probes with
  | [] -> ()
  | probes ->
      let notified, waiting = List.partition (fun pw -> pw.p_live && probe_matches pw env) probes in
      mb.probes <- waiting;
      List.iter
        (fun pw ->
          pw.p_live <- false;
          pw.notify env)
        notified);
  let i = find_posted mb env mb.lo in
  if i < 0 then Ds.Vec.push mb.unexpected env
  else begin
    let pr = mb.posted.(i) in
    vacate mb i;
    pr.live <- false;
    (match env.on_matched with Some hook -> hook () | None -> ());
    pr.deliver env;
    (* deliver consumes the envelope synchronously (copy into the
       receive window, then resume/complete), so it can go back to the
       pool.  Unexpected envelopes stay queued and are released by the
       take_unexpected fast paths in {!P2p}. *)
    release pool env
  end

(* Index of the oldest queued envelope at or after [i] that matches the
   pattern, or -1. *)
let rec find_unexpected mb ~src ~tag ~comm ~ctx i =
  if i >= Ds.Vec.length mb.unexpected then -1
  else if pattern_matches ~src ~tag ~comm ~ctx (Ds.Vec.get mb.unexpected i) then i
  else find_unexpected mb ~src ~tag ~comm ~ctx (i + 1)

let remove_unexpected mb i =
  let env = Ds.Vec.get mb.unexpected i in
  let n = Ds.Vec.length mb.unexpected in
  (* Preserve arrival order: shift the tail left. *)
  for j = i to n - 2 do
    Ds.Vec.set mb.unexpected j (Ds.Vec.get mb.unexpected (j + 1))
  done;
  ignore (Ds.Vec.pop mb.unexpected);
  env

(* Under a wildcard source, MPI only mandates per-(src,dst) non-overtaking:
   among *different* sources, any interleaving of match order is legal.
   [candidate_sources] returns the index of the first (oldest) matching
   envelope per distinct source — each is a legal wildcard match that still
   preserves every pair's FIFO order. *)
let candidate_sources mb ~tag ~comm ~ctx =
  let n = Ds.Vec.length mb.unexpected in
  let seen = Hashtbl.create 4 in
  let acc = ref [] in
  for i = 0 to n - 1 do
    let env = Ds.Vec.get mb.unexpected i in
    if
      pattern_matches ~src:any_source ~tag ~comm ~ctx env
      && not (Hashtbl.mem seen env.src_world)
    then begin
      Hashtbl.add seen env.src_world ();
      acc := (i, env.src_world) :: !acc
    end
  done;
  List.rev !acc

let take_unexpected ?choose mb ~src ~tag ~comm ~ctx =
  let i =
    match (choose, src = any_source) with
    | Some c, true -> (
        match candidate_sources mb ~tag ~comm ~ctx with
        | [] -> -1
        | [ (i, _) ] -> i
        | cands ->
            let arr = Array.of_list cands in
            let j = c (Array.map snd arr) in
            let j = if j < 0 || j >= Array.length arr then 0 else j in
            fst arr.(j))
    | _ -> find_unexpected mb ~src ~tag ~comm ~ctx 0
  in
  if i < 0 then None
  else begin
    let env = remove_unexpected mb i in
    (match env.on_matched with Some hook -> hook () | None -> ());
    Some env
  end

let peek_unexpected mb ~src ~tag ~comm ~ctx =
  let i = find_unexpected mb ~src ~tag ~comm ~ctx 0 in
  if i < 0 then None else Some (Ds.Vec.get mb.unexpected i)

let post_probe mb pw = mb.probes <- mb.probes @ [ pw ]

let fail_matching mb ~pred ~exn =
  let failing = filter_posted mb (fun pr -> not (pred pr)) in
  List.iter
    (fun pr ->
      pr.live <- false;
      pr.on_fail exn)
    failing;
  let probe_pred pw =
    pred
      {
        want_src = pw.p_src;
        want_tag = pw.p_tag;
        want_comm = pw.p_comm;
        want_ctx = pw.p_ctx;
        src_world = pw.p_src_world;
        comm_group = pw.p_group;
        deliver = ignore;
        on_fail = ignore;
        owner_world = -1;
        live = true;
      }
  in
  let failing_probes, waiting = List.partition (fun pw -> pw.p_live && probe_pred pw) mb.probes in
  mb.probes <- waiting;
  List.iter
    (fun pw ->
      pw.p_live <- false;
      pw.p_on_fail exn)
    failing_probes

let drop_owned mb ~world_rank =
  List.iter
    (fun pr -> pr.live <- false)
    (filter_posted mb (fun pr -> pr.owner_world <> world_rank))

let unexpected_count mb = Ds.Vec.length mb.unexpected

(* Checker views: the correctness layer inspects mailbox contents at
   quiesce and finalize without consuming anything. *)
let live_posted mb =
  let acc = ref [] in
  for i = mb.hi - 1 downto mb.lo do
    if mb.posted.(i).live then acc := mb.posted.(i) :: !acc
  done;
  !acc

let pending_count mb = List.length (live_posted mb)
let live_probes mb = List.filter (fun pw -> pw.p_live) mb.probes
let iter_unexpected mb f = Ds.Vec.iter f mb.unexpected
