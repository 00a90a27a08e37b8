module V = Ds.Vec

type level = Off | Light | Heavy | Communication

let rank_of_level = function Off -> 0 | Light -> 1 | Heavy -> 2 | Communication -> 3

let level_of_env = function
  | None -> Light
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "" -> Light
      | "off" | "none" -> Off
      | "light" -> Light
      | "heavy" -> Heavy
      | "communication" | "comm" -> Communication
      | _ ->
          invalid_arg
            (Printf.sprintf
               "MPISIM_CHECK: unknown level %S (expected off, none, light, heavy, \
                communication or comm)"
               s))

let current = ref (level_of_env (Sys.getenv_opt "MPISIM_CHECK"))

let set_level l = current := l
let level () = !current
let enabled l = rank_of_level l <= rank_of_level !current

let with_level l f =
  let saved = !current in
  current := l;
  Fun.protect ~finally:(fun () -> current := saved) f

type coll_sig = { coll_op : string; coll_root : int; coll_count : int; coll_dt : string }

type detail =
  | Deadlock_cycle of { cycle : int list; blocked : (int * string) list }
  | Collective_mismatch of { index : int; field : string; expected : coll_sig; got : coll_sig }
  | Truncation of { sent : int; capacity : int }
  | Datatype_mismatch of { sent : string; expected : string }
  | Request_leak
  | Persistent_leak of { starts : int }
  | Unmatched_send of { dst : int; tag : int; count : int }
  | Window_leak

type diagnostic = { rank : int; comm : int; op : string; location : string; detail : detail }

exception Violation of diagnostic

let sig_to_string s =
  Printf.sprintf "%s(root=%d, count=%d, datatype=%s)" s.coll_op s.coll_root s.coll_count
    (if s.coll_dt = "" then "?" else s.coll_dt)

let detail_to_string = function
  | Deadlock_cycle { cycle; blocked } ->
      let cycle_s =
        match cycle with
        | [] -> "no cycle (a peer exited without sending)"
        | c -> "cycle " ^ String.concat " -> " (List.map string_of_int c)
      in
      Printf.sprintf "deadlock: %s; blocked: %s" cycle_s
        (String.concat ", "
           (List.map (fun (r, what) -> Printf.sprintf "rank %d in %s" r what) blocked))
  | Collective_mismatch { index; field; expected; got } ->
      Printf.sprintf "collective #%d disagrees on %s: expected %s, got %s" index field
        (sig_to_string expected) (sig_to_string got)
  | Truncation { sent; capacity } ->
      Printf.sprintf "truncation: %d elements sent into capacity %d" sent capacity
  | Datatype_mismatch { sent; expected } ->
      Printf.sprintf "datatype mismatch: sent %s, receiver expects %s" sent expected
  | Request_leak -> "request leak: completion never waited for or tested"
  | Persistent_leak { starts } ->
      Printf.sprintf
        "persistent request leak: never freed with MPI_Request_free (%d start%s)" starts
        (if starts = 1 then "" else "s")
  | Unmatched_send { dst; tag; count } ->
      Printf.sprintf "unmatched send: %d elements to rank %d (tag %d) never received" count dst tag
  | Window_leak -> "window leak: RMA window never freed"

let to_string d =
  Printf.sprintf "[%s] rank %d, comm %d, %s: %s" d.location d.rank d.comm d.op
    (detail_to_string d.detail)

(* ------------------------------------------------------------------ *)
(* Per-world state.                                                    *)
(* ------------------------------------------------------------------ *)

type tracked_request = {
  tr_rank : int;
  tr_comm : int;
  tr_op : string;
  tr_at : float;  (* simulated time the request was created *)
  tr_req : Request.t;
}
type tracked_window = { tw_rank : int; tw_comm : int; tw_freed : bool ref }

(* Persistent handles are tracked through closures (reading the handle's
   phase/round counter at finalize time) so the checker does not depend on
   the [Persist] module. *)
type tracked_persistent = {
  tp_rank : int;
  tp_comm : int;
  tp_op : string;
  tp_at : float;
  tp_freed : unit -> bool;
  tp_starts : unit -> int;
}

type state = {
  diags : diagnostic V.t;
  coll_log : (int, coll_sig V.t) Hashtbl.t; (* cid -> agreed call sequence *)
  reqs : tracked_request V.t;
  windows : tracked_window V.t;
  persistents : tracked_persistent V.t;
}

let create () =
  {
    diags = V.create ();
    coll_log = Hashtbl.create 8;
    reqs = V.create ();
    windows = V.create ();
    persistents = V.create ();
  }

let report st d = V.push st.diags d

let diagnostics st = V.to_list st.diags

(* ------------------------------------------------------------------ *)
(* Collective-ordering agreement.                                      *)
(* ------------------------------------------------------------------ *)

(* The first rank to issue its [i]-th collective on a communicator defines
   the reference signature for position [i]; every later rank is compared
   against it.  Ranks progress at different speeds but each appends in its
   own order, so the log is exactly the agreed sequence when the program is
   correct. *)
let first_disagreement expected got =
  if expected.coll_op <> got.coll_op then Some "operation"
  else if expected.coll_root <> got.coll_root then Some "root"
  else if expected.coll_count >= 0 && got.coll_count >= 0 && expected.coll_count <> got.coll_count
  then Some "count"
  else if expected.coll_dt <> "" && got.coll_dt <> "" && expected.coll_dt <> got.coll_dt then
    Some "datatype"
  else None

let record_collective st ~rank ~comm ~index ~op ~root ~count ~datatype =
  if enabled Communication then begin
    let got = { coll_op = op; coll_root = root; coll_count = count; coll_dt = datatype } in
    let log =
      match Hashtbl.find_opt st.coll_log comm with
      | Some l -> l
      | None ->
          let l = V.create () in
          Hashtbl.add st.coll_log comm l;
          l
    in
    if index >= V.length log then V.push log got
    else begin
      let expected = V.get log index in
      match first_disagreement expected got with
      | None -> ()
      | Some field ->
          let d =
            {
              rank;
              comm;
              op;
              location = "collective";
              detail = Collective_mismatch { index; field; expected; got };
            }
          in
          report st d;
          raise (Violation d)
    end
  end

(* ------------------------------------------------------------------ *)
(* Match-time errors.                                                  *)
(* ------------------------------------------------------------------ *)

let record_match_error st ~rank ~comm ~op e =
  if enabled Light then
    match e with
    | Errors.Truncated { sent; capacity } ->
        report st { rank; comm; op; location = "p2p-match"; detail = Truncation { sent; capacity } }
    | Errors.Type_mismatch { sent; expected } ->
        report st
          { rank; comm; op; location = "p2p-match"; detail = Datatype_mismatch { sent; expected } }
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Resource tracking.                                                  *)
(* ------------------------------------------------------------------ *)

let track_request st ~rank ~comm ~op ~at req =
  if enabled Heavy then
    V.push st.reqs { tr_rank = rank; tr_comm = comm; tr_op = op; tr_at = at; tr_req = req }

let track_persistent st ~rank ~comm ~op ~at ~freed ~starts =
  if enabled Heavy then
    V.push st.persistents
      { tp_rank = rank; tp_comm = comm; tp_op = op; tp_at = at; tp_freed = freed;
        tp_starts = starts }

let track_window st ~rank ~comm ~freed =
  if enabled Heavy then V.push st.windows { tw_rank = rank; tw_comm = comm; tw_freed = freed }

(* ------------------------------------------------------------------ *)
(* Deadlock diagnosis.                                                 *)
(* ------------------------------------------------------------------ *)

let describe_pending (pr : Msg.pending_recv) =
  let what = match pr.want_ctx with Msg.User -> "recv" | Msg.Internal -> "collective/internal recv" in
  let src = if pr.want_src = -1 then "any" else string_of_int pr.want_src in
  let tag = if pr.want_tag = -1 then "any" else string_of_int pr.want_tag in
  Printf.sprintf "%s(src=%s, tag=%s, comm=%d)" what src tag pr.want_comm

let describe_probe (pw : Msg.probe_waiter) =
  let src = if pw.p_src = -1 then "any" else string_of_int pw.p_src in
  Printf.sprintf "probe(src=%s, comm=%d)" src pw.p_comm

(* One wait-for edge per rank a blocked receive could be satisfied by; a
   wildcard receive contributes an edge to every live group member. *)
let wait_targets ~rank_alive ~owner ~src_world ~group =
  if src_world >= 0 then if src_world <> owner then [ src_world ] else []
  else
    Array.to_list group |> List.filter (fun g -> g <> owner && rank_alive g) |> List.sort_uniq compare

let find_cycle edges =
  (* [edges]: (from, to) list.  Iterative DFS with an explicit path; the
     first back-edge into the current path yields the cycle. *)
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      let cur = match Hashtbl.find_opt adj a with Some l -> l | None -> [] in
      Hashtbl.replace adj a (b :: cur))
    edges;
  let visited = Hashtbl.create 16 in
  let result = ref None in
  let rec dfs path node =
    if !result = None then
      match List.find_index (fun n -> n = node) path with
      | Some i ->
          (* path is most-recent-first: the cycle is the prefix up to node *)
          result := Some (List.rev (node :: List.filteri (fun j _ -> j <= i) path))
      | None ->
          if not (Hashtbl.mem visited node) then begin
            Hashtbl.add visited node ();
            let succs = match Hashtbl.find_opt adj node with Some l -> l | None -> [] in
            List.iter (fun s -> dfs (node :: path) s) succs
          end
  in
  Hashtbl.iter (fun node _ -> if !result = None then dfs [] node) adj;
  match !result with Some cycle -> cycle | None -> []

let diagnose_deadlock st ~mailboxes ~parked ~rank_alive =
  let blocked = ref [] and edges = ref [] in
  Array.iter
    (fun mb ->
      List.iter
        (fun (pr : Msg.pending_recv) ->
          blocked := (pr.Msg.owner_world, describe_pending pr) :: !blocked;
          List.iter
            (fun t -> edges := (pr.Msg.owner_world, t) :: !edges)
            (wait_targets ~rank_alive ~owner:pr.Msg.owner_world ~src_world:pr.Msg.src_world
               ~group:pr.Msg.comm_group))
        (Msg.live_posted mb);
      List.iter
        (fun (pw : Msg.probe_waiter) ->
          blocked := (pw.Msg.p_owner_world, describe_probe pw) :: !blocked;
          List.iter
            (fun t -> edges := (pw.Msg.p_owner_world, t) :: !edges)
            (wait_targets ~rank_alive ~owner:pw.Msg.p_owner_world ~src_world:pw.Msg.p_src_world
               ~group:pw.Msg.p_group))
        (Msg.live_probes mb))
    mailboxes;
  (* parked ranks with no posted receive are blocked in a request wait or
     an agreement; report them too so no stuck rank goes unmentioned *)
  List.iter
    (fun r ->
      if not (List.exists (fun (o, _) -> o = r) !blocked) then
        blocked := (r, "parked (waiting on a request or agreement)") :: !blocked)
    parked;
  let blocked = List.sort compare (List.rev !blocked) in
  let cycle = find_cycle !edges in
  let rank = match cycle with r :: _ -> r | [] -> ( match blocked with (r, _) :: _ -> r | [] -> -1)
  in
  let comm, op =
    let from_posted =
      Array.to_list mailboxes
      |> List.concat_map (fun mb -> Msg.live_posted mb)
      |> List.find_opt (fun (pr : Msg.pending_recv) -> pr.Msg.owner_world = rank)
    in
    match from_posted with
    | Some pr -> (pr.Msg.want_comm, describe_pending pr)
    | None -> (-1, "quiesce")
  in
  let d = { rank; comm; op; location = "quiesce"; detail = Deadlock_cycle { cycle; blocked } } in
  report st d;
  d

(* ------------------------------------------------------------------ *)
(* Finalize leak checks.                                               *)
(* ------------------------------------------------------------------ *)

let finalize st ~mailboxes ~rank_alive ~comm_revoked ~comm_failed_at =
  (* Traffic that was already in flight when a member of its communicator
     died may have been legitimately abandoned (e.g. one half of a buddy
     [sendrecv] whose surrounding protocol a third rank's failure tore
     down before any revocation).  Traffic initiated {e after} the
     failure has no such excuse: a live-to-live leak on a damaged
     communicator is still a leak. *)
  let abandoned ~comm ~at =
    let failed = comm_failed_at comm in
    failed < infinity && at <= failed
  in
  if enabled Heavy then begin
    V.iter
      (fun tr ->
        if
          rank_alive tr.tr_rank
          && (not (comm_revoked tr.tr_comm))
          && (not (abandoned ~comm:tr.tr_comm ~at:tr.tr_at))
          && (not (Request.was_observed tr.tr_req))
          && not (Request.is_failed tr.tr_req)
        then
          report st
            {
              rank = tr.tr_rank;
              comm = tr.tr_comm;
              op = tr.tr_op;
              location = "finalize";
              detail = Request_leak;
            })
      st.reqs;
    Array.iteri
      (fun dst mb ->
        Msg.iter_unexpected mb (fun (env : Msg.envelope) ->
            if
              env.Msg.ctx = Msg.User && rank_alive dst && rank_alive env.Msg.src_world
              && (not (comm_revoked env.Msg.comm_id))
              && not (abandoned ~comm:env.Msg.comm_id ~at:env.Msg.sent_at)
            then
              report st
                {
                  rank = env.Msg.src_world;
                  comm = env.Msg.comm_id;
                  op = "MPI_Send";
                  location = "finalize";
                  detail = Unmatched_send { dst; tag = env.Msg.tag; count = env.Msg.count };
                }))
      mailboxes;
    V.iter
      (fun tp ->
        if
          rank_alive tp.tp_rank
          && (not (comm_revoked tp.tp_comm))
          && (not (abandoned ~comm:tp.tp_comm ~at:tp.tp_at))
          && not (tp.tp_freed ())
        then
          report st
            {
              rank = tp.tp_rank;
              comm = tp.tp_comm;
              op = tp.tp_op;
              location = "finalize";
              detail = Persistent_leak { starts = tp.tp_starts () };
            })
      st.persistents;
    V.iter
      (fun tw ->
        if (not !(tw.tw_freed)) && rank_alive tw.tw_rank then
          report st
            {
              rank = tw.tw_rank;
              comm = tw.tw_comm;
              op = "MPI_Win_create";
              location = "finalize";
              detail = Window_leak;
            })
      st.windows
  end
