(* The posted-receive queue of [Mpisim.Msg].

   Pillars:
   - matching order: a random mix of post (specific and wildcard source
     and tag, two communicators, both contexts), arrive, cancel,
     fail_matching and drop_owned behaves exactly like a list-based
     reference model of MPI matching (first live matching receive in post
     order wins), delivery by delivery;
   - space safety: a receive that is matched, cancelled, failed or dropped
     is no longer reachable from its mailbox, so neither are the closures
     and receive buffer it captured. *)

open Mpisim

(* ------------------------------------------------------------------ *)
(* Reference model                                                     *)
(* ------------------------------------------------------------------ *)

(* MPI matching over a plain list in post order.  Retired receives are
   only flagged dead and skipped, never searched for. *)
type model = { mutable m_posted : Msg.pending_recv list; mutable m_unexpected : int }

let m_post m pr = m.m_posted <- m.m_posted @ [ pr ]

let m_arrive m env =
  let rec find acc = function
    | [] -> None
    | (pr : Msg.pending_recv) :: rest when pr.live && Msg.matches pr env ->
        m.m_posted <- List.rev_append acc rest;
        Some pr
    | pr :: rest -> find (pr :: acc) rest
  in
  match find [] m.m_posted with
  | Some pr ->
      pr.live <- false;
      pr.deliver env
  | None -> m.m_unexpected <- m.m_unexpected + 1

let m_fail m ~pred ~exn =
  let failing, keep =
    List.partition (fun (pr : Msg.pending_recv) -> pr.live && pred pr) m.m_posted
  in
  m.m_posted <- keep;
  List.iter
    (fun (pr : Msg.pending_recv) ->
      pr.live <- false;
      pr.on_fail exn)
    failing

let m_drop m ~world_rank =
  List.iter
    (fun (pr : Msg.pending_recv) -> if pr.owner_world = world_rank then pr.live <- false)
    m.m_posted

let m_live m = List.filter (fun (pr : Msg.pending_recv) -> pr.live) m.m_posted

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let group = [| 0; 1; 2 |]

let pending ~src ~tag ~comm ~ctx ~owner ~deliver ~on_fail : Msg.pending_recv =
  {
    Msg.want_src = src;
    want_tag = tag;
    want_comm = comm;
    want_ctx = ctx;
    src_world = src;
    comm_group = group;
    deliver;
    on_fail;
    owner_world = owner;
    live = true;
  }

let envelope pool ~src ~tag ~comm ~ctx =
  Msg.make_envelope pool ~src ~src_world:src ~tag ~comm_id:comm ~ctx ~count:0 ~bytes:0
    ~sent_at:0.0
    ~payload:(Msg.Packed (Datatype.int, [||]))
    ~on_matched:None ~trace:None

(* The failure predicate [World.kill] uses for a dead world rank. *)
let expects_dead k (pr : Msg.pending_recv) =
  pr.src_world = k || (pr.src_world = -1 && Array.exists (fun g -> g = k) pr.comm_group)

(* ------------------------------------------------------------------ *)
(* Differential matching-order property                                *)
(* ------------------------------------------------------------------ *)

type op =
  | Post of { src : int; tag : int; comm : int; ctx : Msg.ctx; owner : int }
  | Arrive of { src : int; tag : int; comm : int; ctx : Msg.ctx }
  | Cancel of int  (** the n-th receive posted so far, modulo *)
  | Fail_src of int
  | Fail_comm of int
  | Drop of int

let ctx_name = function Msg.User -> "user" | Msg.Internal -> "internal"

let op_to_string = function
  | Post { src; tag; comm; ctx; owner } ->
      Printf.sprintf "post(src=%d tag=%d comm=%d %s owner=%d)" src tag comm (ctx_name ctx) owner
  | Arrive { src; tag; comm; ctx } ->
      Printf.sprintf "arrive(src=%d tag=%d comm=%d %s)" src tag comm (ctx_name ctx)
  | Cancel n -> Printf.sprintf "cancel(%d)" n
  | Fail_src k -> Printf.sprintf "fail_src(%d)" k
  | Fail_comm c -> Printf.sprintf "fail_comm(%d)" c
  | Drop o -> Printf.sprintf "drop(%d)" o

let gen_ops =
  let open QCheck2.Gen in
  let ctx = oneofl [ Msg.User; Msg.Internal ] in
  let comm = int_range 0 1 in
  let post =
    let+ src = int_range (-1) 2
    and+ tag = int_range (-1) 1
    and+ comm = comm
    and+ ctx = ctx
    and+ owner = int_range 0 1 in
    Post { src; tag; comm; ctx; owner }
  in
  let arrive =
    let+ src = int_range 0 2 and+ tag = int_range 0 1 and+ comm = comm and+ ctx = ctx in
    Arrive { src; tag; comm; ctx }
  in
  let op =
    frequency
      [
        (6, post);
        (5, arrive);
        (2, map (fun n -> Cancel n) (int_bound 40));
        (1, map (fun k -> Fail_src k) (int_range 0 2));
        (1, map (fun c -> Fail_comm c) comm);
        (1, map (fun o -> Drop o) (int_range 0 1));
      ]
  in
  list_size (int_range 0 60) op

(* Runs [ops] against [Msg] and the model side by side.  Each post makes
   one receive per side with the same envelope fields; their callbacks log
   the receive's id.  After every step the delivery/failure logs, the live
   receives (as ids, in post order) and the unexpected counts must agree. *)
let matches_model ops =
  let pool = Msg.create_pool () and mb = Msg.create () in
  let m = { m_posted = []; m_unexpected = 0 } in
  let sut_log = ref [] and model_log = ref [] in
  let sut = Ds.Vec.create () and model = Ds.Vec.create () in
  let ids v prs =
    List.map
      (fun pr ->
        let rec find i = if Ds.Vec.get v i == pr then i else find (i + 1) in
        find 0)
      prs
  in
  let step i op =
    (match op with
    | Post { src; tag; comm; ctx; owner } ->
        let id = Ds.Vec.length sut in
        let make log =
          pending ~src ~tag ~comm ~ctx ~owner
            ~deliver:(fun (env : Msg.envelope) -> log := (`Matched env.src, id) :: !log)
            ~on_fail:(fun _ -> log := (`Failed, id) :: !log)
        in
        let s = make sut_log and r = make model_log in
        Ds.Vec.push sut s;
        Ds.Vec.push model r;
        Msg.post mb s;
        m_post m r
    | Arrive { src; tag; comm; ctx } ->
        m_arrive m (envelope (Msg.create_pool ()) ~src ~tag ~comm ~ctx);
        Msg.arrive pool mb (envelope pool ~src ~tag ~comm ~ctx)
    | Cancel n ->
        let len = Ds.Vec.length sut in
        if len > 0 then begin
          Msg.cancel mb (Ds.Vec.get sut (n mod len));
          (Ds.Vec.get model (n mod len)).live <- false
        end
    | Fail_src k ->
        Msg.fail_matching mb ~pred:(expects_dead k) ~exn:Exit;
        m_fail m ~pred:(expects_dead k) ~exn:Exit
    | Fail_comm c ->
        let pred (pr : Msg.pending_recv) = pr.want_comm = c in
        Msg.fail_matching mb ~pred ~exn:Exit;
        m_fail m ~pred ~exn:Exit
    | Drop o ->
        Msg.drop_owned mb ~world_rank:o;
        m_drop m ~world_rank:o);
    let fail what =
      failwith (Printf.sprintf "step %d, %s: %s differs from the model" i (op_to_string op) what)
    in
    if !sut_log <> !model_log then fail "delivery/failure log";
    let live = ids model (m_live m) in
    if ids sut (Msg.live_posted mb) <> live then fail "live receives";
    if Msg.pending_count mb <> List.length live then fail "pending count";
    if Msg.unexpected_count mb <> m.m_unexpected then fail "unexpected count"
  in
  List.iteri step ops;
  true

let prop_matching_order =
  Tutil.qtest ~count:500 "matching order equals list model" gen_ops matches_model

(* No randomness needed for the rule the property is built on: among live
   receives that all match, the earliest posted wins, even when a later
   one names the source and tag exactly. *)
let test_wildcard_posted_first_wins () =
  let pool = Msg.create_pool () and mb = Msg.create () in
  let got = ref [] in
  let post ~src ~tag id =
    Msg.post mb
      (pending ~src ~tag ~comm:0 ~ctx:Msg.User ~owner:0
         ~deliver:(fun _ -> got := id :: !got)
         ~on_fail:ignore)
  in
  post ~src:Msg.any_source ~tag:Msg.any_tag "wildcard";
  post ~src:1 ~tag:0 "specific";
  Msg.arrive pool mb (envelope pool ~src:1 ~tag:0 ~comm:0 ~ctx:Msg.User);
  Alcotest.(check (list string)) "earliest posted wins" [ "wildcard" ] !got;
  Msg.arrive pool mb (envelope pool ~src:1 ~tag:0 ~comm:0 ~ctx:Msg.User);
  Alcotest.(check (list string)) "then the specific one" [ "specific"; "wildcard" ] !got;
  Alcotest.(check int) "queue empty" 0 (Msg.pending_count mb)

(* ------------------------------------------------------------------ *)
(* Space safety                                                        *)
(* ------------------------------------------------------------------ *)

let check_collected weak ~what =
  Gc.full_major ();
  for i = 0 to Weak.length weak - 1 do
    if Weak.check weak i then Alcotest.failf "%s receive buffer %d is still reachable" what i
  done

(* Every retirement path of a bare mailbox: one receive each is matched,
   failed, dropped with its dead owner and cancelled.  A fifth stays
   posted and must stay reachable, which shows the check can see a
   retained buffer at all. *)
let test_mailbox_releases_retired () =
  let pool = Msg.create_pool () and mb = Msg.create () in
  let retired = Weak.create 4 and kept = Weak.create 1 in
  let cancelled = ref None in
  let[@inline never] post weak i ~src ~owner =
    let buf = Array.make 8 0 in
    Weak.set weak i (Some buf);
    let pr =
      pending ~src ~tag:0 ~comm:0 ~ctx:Msg.User ~owner
        ~deliver:(fun _ -> buf.(0) <- 1)
        ~on_fail:(fun _ -> buf.(0) <- 2)
    in
    Msg.post mb pr;
    pr
  in
  ignore (post retired 0 ~src:0 ~owner:0);
  ignore (post retired 1 ~src:1 ~owner:0);
  ignore (post retired 2 ~src:2 ~owner:1);
  ignore (post kept 0 ~src:2 ~owner:0);
  cancelled := Some (post retired 3 ~src:2 ~owner:0);
  Msg.arrive pool mb (envelope pool ~src:0 ~tag:0 ~comm:0 ~ctx:Msg.User);
  Msg.fail_matching mb ~pred:(expects_dead 1) ~exn:Exit;
  Msg.drop_owned mb ~world_rank:1;
  Option.iter (Msg.cancel mb) !cancelled;
  cancelled := None;
  check_collected retired ~what:"retired";
  Alcotest.(check bool) "live receive still reachable" true (Weak.check kept 0);
  Alcotest.(check int) "one live receive left" 1 (Msg.pending_count mb)

(* The same through the runtime: [k] irecvs matched in reverse post order
   (leaving holes in the middle of the queue), then [k] recv_init rounds
   started, cancelled and freed.  Checked while the world, and with it
   every mailbox, is still alive. *)
let k = 8

let[@inline never] matched_receives comm weak =
  let reqs =
    Array.init k (fun i ->
        let buf = Array.make 8 0 in
        Weak.set weak i (Some buf);
        P2p.irecv comm Datatype.int buf ~src:1 ~tag:i)
  in
  Collectives.barrier comm;
  Array.iter (fun r -> ignore (Request.wait r)) reqs

let[@inline never] cancelled_round comm weak i =
  let buf = Array.make 8 0 in
  Weak.set weak i (Some buf);
  let h = P2p.recv_init comm Datatype.int buf ~src:1 ~tag:k in
  Persist.start h;
  Persist.cancel h;
  Persist.free h

let test_runtime_releases_retired () =
  let matched = Weak.create k and cancelled = Weak.create k in
  Checker.with_level Checker.Light (fun () ->
      ignore
        (Tutil.run ~ranks:2 (fun comm ->
             if Comm.rank comm = 0 then begin
               matched_receives comm matched;
               check_collected matched ~what:"matched";
               for i = 0 to k - 1 do
                 cancelled_round comm cancelled i
               done;
               check_collected cancelled ~what:"cancelled"
             end
             else begin
               Collectives.barrier comm;
               for i = k - 1 downto 0 do
                 P2p.send comm Datatype.int [| i |] ~dst:0 ~tag:i
               done
             end)))

let suite =
  [
    prop_matching_order;
    Alcotest.test_case "wildcard posted first wins" `Quick test_wildcard_posted_first_wins;
    Alcotest.test_case "mailbox releases retired receives" `Quick test_mailbox_releases_retired;
    Alcotest.test_case "runtime releases matched and cancelled receives" `Quick
      test_runtime_releases_retired;
  ]
