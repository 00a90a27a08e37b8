module Engine = Simnet.Engine
module Rng = Simnet.Rng
module Checker = Mpisim.Checker

(* ------------------------------------------------------------------ *)
(* Strategies and chaos configuration                                  *)

type strategy =
  | Default
  | Random of { seed : int }
  | Pct of { seed : int; depth : int }
  | Delay of { seed : int; budget : int }

type chaos = {
  jitter : float;  (* max extra delivery latency, seconds; 0 = off *)
  jitter_buckets : int;  (* granularity of each jitter draw *)
  kills : (int * float * float) list;  (* (world rank, window lo, window hi) *)
  kill_buckets : int;  (* granularity of each kill-time draw *)
}

let no_chaos = { jitter = 0.0; jitter_buckets = 8; kills = []; kill_buckets = 16 }

(* ------------------------------------------------------------------ *)
(* Replay tokens                                                       *)

type token = { strategy : strategy; chaos : chaos; trace : int array }

let strategy_to_string = function
  | Default -> "default"
  | Random { seed } -> Printf.sprintf "random:%d" seed
  | Pct { seed; depth } -> Printf.sprintf "pct:%d:%d" seed depth
  | Delay { seed; budget } -> Printf.sprintf "delay:%d:%d" seed budget

let strategy_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ "default" ] -> Default
  | [ "random"; seed ] -> Random { seed = int_of_string seed }
  | [ "random" ] -> Random { seed = 42 }
  | [ "pct"; seed; depth ] -> Pct { seed = int_of_string seed; depth = int_of_string depth }
  | [ "pct"; seed ] -> Pct { seed = int_of_string seed; depth = 3 }
  | [ "delay"; seed; budget ] ->
      Delay { seed = int_of_string seed; budget = int_of_string budget }
  | [ "delay"; seed ] -> Delay { seed = int_of_string seed; budget = 16 }
  | _ -> failwith (Printf.sprintf "Explore: cannot parse strategy %S" s)

let chop ~prefix s =
  let n = String.length prefix in
  if String.length s >= n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

(* Split "lo..hi" at the first ".." (hex floats contain single dots only). *)
let split_dotdot s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = '.' && s.[i + 1] = '.' then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 2) (n - i - 2))
  | None -> None

(* Floats are printed in hex (%h) so the round-trip is bit-exact. *)
let token_to_string t =
  let kills =
    t.chaos.kills
    |> List.map (fun (r, lo, hi) -> Printf.sprintf "%d@%h..%h" r lo hi)
    |> String.concat ","
  in
  let trace = t.trace |> Array.to_list |> List.map string_of_int |> String.concat "," in
  Printf.sprintf "explore{%s|jitter=%h/%d|kills=%s/%d|trace=%s}"
    (strategy_to_string t.strategy)
    t.chaos.jitter t.chaos.jitter_buckets kills t.chaos.kill_buckets trace

let token_of_string s =
  let s = String.trim s in
  let fail () = failwith (Printf.sprintf "Explore: cannot parse token %S" s) in
  let get = function Some v -> v | None -> fail () in
  let body =
    match chop ~prefix:"explore{" s with
    | Some b when String.length b > 0 && b.[String.length b - 1] = '}' ->
        String.sub b 0 (String.length b - 1)
    | _ -> fail ()
  in
  match String.split_on_char '|' body with
  | [ strat; jitter; kills; trace ] ->
      let strategy = strategy_of_string strat in
      let jitter_v, jitter_buckets =
        match String.split_on_char '/' (get (chop ~prefix:"jitter=" jitter)) with
        | [ j; b ] -> (float_of_string j, int_of_string b)
        | _ -> fail ()
      in
      let kill_list, kill_buckets =
        match String.split_on_char '/' (get (chop ~prefix:"kills=" kills)) with
        | [ k; b ] ->
            let parse_kill one =
              match String.index_opt one '@' with
              | None -> fail ()
              | Some at -> (
                  let rank = int_of_string (String.sub one 0 at) in
                  let range = String.sub one (at + 1) (String.length one - at - 1) in
                  match split_dotdot range with
                  | Some (lo, hi) -> (rank, float_of_string lo, float_of_string hi)
                  | None -> fail ())
            in
            ( (if k = "" then [] else List.map parse_kill (String.split_on_char ',' k)),
              int_of_string b )
        | _ -> fail ()
      in
      let trace =
        match get (chop ~prefix:"trace=" trace) with
        | "" -> [||]
        | t -> t |> String.split_on_char ',' |> List.map int_of_string |> Array.of_list
      in
      {
        strategy;
        chaos = { jitter = jitter_v; jitter_buckets; kills = kill_list; kill_buckets };
        trace;
      }
  | _ -> fail ()

(* ------------------------------------------------------------------ *)
(* Decision sessions                                                   *)

(* Cap on recorded decisions: a pathological run stops growing its token
   past this point (replay pads with 0 beyond the end anyway). *)
let trace_cap = 1 lsl 20

type session = {
  hooks : Mpisim.Exhook.t;
  fail_at : (int * float) list;  (* chaos kills resolved at session start *)
  trace_of : unit -> int array;  (* decisions so far, trailing zeros trimmed *)
}

let make_session ?(record = true) ~strategy ~chaos ~replay () =
  let recorded = Ds.Vec.create () in
  let note i = if record && Ds.Vec.length recorded < trace_cap then Ds.Vec.push recorded i in
  let decide : kind:Engine.decision_kind -> ids:int array -> int =
    match replay with
    | Some tr ->
        let pos = ref 0 in
        fun ~kind:_ ~ids ->
          let n = Array.length ids in
          let raw = if !pos < Array.length tr then tr.(!pos) else 0 in
          incr pos;
          let i = if raw < 0 || raw >= n then 0 else raw in
          note i;
          i
    | None -> (
        match strategy with
        | Default ->
            fun ~kind:_ ~ids:_ ->
              note 0;
              0
        | Random { seed } ->
            let rng = Rng.create (Int64.of_int seed) in
            fun ~kind:_ ~ids ->
              let i = Rng.int rng (Array.length ids) in
              note i;
              i
        | Pct { seed; depth } ->
            let rng = Rng.create (Int64.of_int seed) in
            let prio : (int, float) Hashtbl.t = Hashtbl.create 16 in
            let prio_of id =
              match Hashtbl.find_opt prio id with
              | Some p -> p
              | None ->
                  let p = 1.0 +. Rng.float rng in
                  Hashtbl.replace prio id p;
                  p
            in
            fun ~kind ~ids ->
              let i =
                match kind with
                | Engine.Ready ->
                    (* highest-priority owner runs; with probability
                       depth/1000 per decision the winner is demoted below
                       every initial priority — the PCT priority-change
                       points, in expectation [depth] per 1000 decisions *)
                    let best = ref 0 and bestp = ref neg_infinity in
                    Array.iteri
                      (fun i id ->
                        let p = prio_of id in
                        if p > !bestp then begin
                          best := i;
                          bestp := p
                        end)
                      ids;
                    if depth > 0 && Rng.int rng 1000 < depth then
                      Hashtbl.replace prio ids.(!best) (Rng.float rng);
                    !best
                | _ -> Rng.int rng (Array.length ids)
              in
              note i;
              i
        | Delay { seed; budget } ->
            let rng = Rng.create (Int64.of_int seed) in
            let left = ref budget in
            fun ~kind:_ ~ids ->
              let n = Array.length ids in
              let i =
                if n > 1 && !left > 0 && Rng.bool rng then begin
                  decr left;
                  (* delay the incumbent next event: run some other one *)
                  1 + Rng.int rng (n - 1)
                end
                else 0
              in
              note i;
              i)
  in
  (* Chaos kills: one bucketed draw per kill window, consumed before the
     run starts so they sit at the head of the decision trace. *)
  let fail_at =
    List.map
      (fun (rank, lo, hi) ->
        let buckets = max 1 chaos.kill_buckets in
        let ids = Array.init buckets Fun.id in
        let b = if buckets = 1 then 0 else decide ~kind:Engine.Chaos ~ids in
        let frac = if buckets <= 1 then 0.0 else float_of_int b /. float_of_int (buckets - 1) in
        (rank, lo +. ((hi -. lo) *. frac)))
      chaos.kills
  in
  let arrival_adjust =
    if chaos.jitter <= 0.0 then None
    else begin
      let buckets = max 2 chaos.jitter_buckets in
      let ids = Array.init buckets Fun.id in
      let last : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
      Some
        (fun ~src ~dst ~arrival ->
          let b = decide ~kind:Engine.Chaos ~ids in
          let extra = chaos.jitter *. float_of_int b /. float_of_int (buckets - 1) in
          let a = arrival +. extra in
          (* preserve per-(src,dst) FIFO: never deliver at or before the
             pair's previous delivery *)
          let a =
            match Hashtbl.find_opt last (src, dst) with
            | Some l when a <= l -> Float.succ l
            | _ -> a
          in
          Hashtbl.replace last (src, dst) a;
          a)
    end
  in
  let trace_of () =
    let arr = Ds.Vec.to_array recorded in
    let len = ref (Array.length arr) in
    while !len > 0 && arr.(!len - 1) = 0 do
      decr len
    done;
    Array.sub arr 0 !len
  in
  { hooks = { Mpisim.Exhook.choose = (fun ~kind ~ids -> decide ~kind ~ids); arrival_adjust };
    fail_at;
    trace_of }

(* ------------------------------------------------------------------ *)
(* Running a workload under one schedule                               *)

type 'a outcome = Finished of 'a Mpisim.Mpi.run_result | Crashed of exn
type 'a observed = { outcome : 'a outcome; token : token }

(* Generous simulated-time watchdog: every explored run is bounded, so a
   livelocking schedule surfaces as Engine.Limit_exceeded instead of
   wedging the harness. *)
let default_deadline = 3600.0

let last_token_ref : token option ref = ref None
let last_token () = !last_token_ref

let run ?(strategy = Default) ?(chaos = no_chaos) ?replay ~ranks f =
  let s = make_session ~strategy ~chaos ~replay () in
  let outcome =
    Checker.with_level Checker.Communication (fun () ->
        match
          Mpisim.Mpi.run ~hooks:s.hooks ~fail_at:s.fail_at ~deadline:default_deadline ~ranks f
        with
        | r -> Finished r
        | exception e -> Crashed e)
  in
  let token = { strategy; chaos; trace = s.trace_of () } in
  last_token_ref := Some token;
  { outcome; token }

let replay token ~ranks f =
  run ~strategy:token.strategy ~chaos:token.chaos ~replay:token.trace ~ranks f

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)

type verdict = Pass of string | Fail of string

let digest_results results =
  (* Marshal the per-rank values; a workload returning unmarshalable data
     (closures) still explores, it just can only be checked for
     pass/fail rather than cross-schedule result equality. *)
  match Marshal.to_string (results : Obj.t array) [] with
  | s -> Digest.to_hex (Digest.string s)
  | exception _ -> "<opaque>"

let verdict_of (o : 'a observed) =
  match o.outcome with
  | Crashed e -> Fail ("crashed: " ^ Printexc.to_string e)
  | Finished r ->
      if r.Mpisim.Mpi.diagnostics <> [] then
        Fail
          ("checker: "
          ^ String.concat "; " (List.map Checker.to_string r.Mpisim.Mpi.diagnostics))
      else begin
        let errs =
          Array.to_list r.Mpisim.Mpi.results
          |> List.filter_map (function
               | Error e -> Some (Printexc.to_string e)
               | Ok _ -> None)
        in
        if errs <> [] then Fail ("rank error: " ^ String.concat "; " errs)
        else
          Pass
            (digest_results
               (Array.map
                  (function Ok v -> Obj.repr v | Error _ -> assert false)
                  r.Mpisim.Mpi.results))
      end

(* ------------------------------------------------------------------ *)
(* Greedy trace shrinking                                              *)

(* ddmin-lite on the positional decision trace: try zeroing aligned chunks
   (halving the chunk size down to single decisions), keeping a candidate
   whenever the failure persists, then trim trailing zeros (replay pads
   with 0 beyond the end of the trace).  Deleting entries would shift the
   positions of every later decision and change their meaning, so zeroing
   is the only sound reduction. *)
let shrink_trace ~fails trace =
  let budget = 300 in
  let attempts = ref 0 in
  let try_candidate cand =
    !attempts < budget
    && begin
         incr attempts;
         fails cand
       end
  in
  let cur = ref (Array.copy trace) in
  let size = ref (max 1 (Array.length trace / 2)) in
  let continue = ref (Array.length trace > 0) in
  while !continue do
    let i = ref 0 in
    while !i < Array.length !cur do
      let hi = min (Array.length !cur) (!i + !size) in
      let has_nonzero = ref false in
      for j = !i to hi - 1 do
        if (!cur).(j) <> 0 then has_nonzero := true
      done;
      if !has_nonzero then begin
        let cand = Array.copy !cur in
        for j = !i to hi - 1 do
          cand.(j) <- 0
        done;
        if try_candidate cand then cur := cand
      end;
      i := hi
    done;
    if !size = 1 || !attempts >= budget then continue := false else size := !size / 2
  done;
  let len = ref (Array.length !cur) in
  while !len > 0 && (!cur).(!len - 1) = 0 do
    decr len
  done;
  Array.sub !cur 0 !len

(* ------------------------------------------------------------------ *)
(* The exploration driver                                              *)

type counterexample = {
  ce_token : token;
  ce_reason : string;
  ce_schedule : int;  (* 0 = the reference schedule, i = i-th random one *)
  ce_decisions : int;  (* length of the minimized decision trace *)
  ce_chrome : string option;  (* path of the dumped Chrome trace, if any *)
}

let dump_chrome token ~ranks f =
  let s = make_session ~strategy:token.strategy ~chaos:token.chaos ~replay:(Some token.trace) () in
  match
    Checker.with_level Checker.Communication (fun () ->
        Mpisim.Mpi.run ~hooks:s.hooks ~fail_at:s.fail_at ~deadline:default_deadline
          ~trace:true ~ranks f)
  with
  | exception _ -> None
  | r -> (
      match r.Mpisim.Mpi.trace with
      | None -> None
      | Some data ->
          let json = Trace.Chrome.to_json data in
          let path = Filename.temp_file "explore-counterexample" ".trace.json" in
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Serde.Json.to_string json));
          Some path)

let explore ?(schedules = 20) ?(seed = 7) ?(chaos = no_chaos) ?(verdict = verdict_of)
    ?(dump = true) ~ranks f =
  let reference = run ~strategy:Default ~chaos:no_chaos ~ranks f in
  match verdict reference with
  | Fail reason ->
      Error
        {
          ce_token = reference.token;
          ce_reason = "reference schedule: " ^ reason;
          ce_schedule = 0;
          ce_decisions = Array.length reference.token.trace;
          ce_chrome = None;
        }
  | Pass ref_digest -> (
      let failing = ref None in
      let i = ref 0 in
      while !failing = None && !i < schedules do
        incr i;
        (* decorrelate per-schedule seeds from nearby base seeds *)
        let sd =
          Int64.to_int (Rng.hash64 (Int64.of_int ((seed * 1_000_003) + !i))) land 0x3FFFFFFF
        in
        let o = run ~strategy:(Random { seed = sd }) ~chaos ~ranks f in
        match verdict o with
        | Fail reason -> failing := Some (o.token, reason, !i)
        | Pass d when d <> ref_digest ->
            failing :=
              Some
                ( o.token,
                  Printf.sprintf "schedule-dependent result: digest %s <> reference %s" d
                    ref_digest,
                  !i )
        | Pass _ -> ()
      done;
      match !failing with
      | None -> Ok schedules
      | Some (tok, reason, at) ->
          let fails tr =
            let o = run ~strategy:tok.strategy ~chaos:tok.chaos ~replay:tr ~ranks f in
            match verdict o with Fail _ -> true | Pass d -> d <> ref_digest
          in
          let minimized = shrink_trace ~fails tok.trace in
          let ce_token = { tok with trace = minimized } in
          let ce_chrome = if dump then dump_chrome ce_token ~ranks f else None in
          Error
            {
              ce_token;
              ce_reason = reason;
              ce_schedule = at;
              ce_decisions = Array.length minimized;
              ce_chrome;
            })

(* ------------------------------------------------------------------ *)
(* Factory scoping: exploring code that calls Mpi.run itself           *)

let with_factory factory f =
  let old = !Mpisim.Exhook.factory in
  Mpisim.Exhook.factory := factory;
  Fun.protect ~finally:(fun () -> Mpisim.Exhook.factory := old) f

let with_strategy ~strategy f =
  let s = make_session ~strategy ~chaos:no_chaos ~replay:None () in
  let v = with_factory (fun () -> Some s.hooks) f in
  (v, { strategy; chaos = no_chaos; trace = s.trace_of () })

let unexplored f = with_factory (fun () -> None) f

(* ------------------------------------------------------------------ *)
(* Environment activation: MPISIM_EXPLORE=random:42 dune runtest       *)

let env_var = "MPISIM_EXPLORE"

let () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec ->
      let strategy = strategy_of_string spec in
      (* Every Mpi.run gets a fresh session with the SAME seed and no
         recording: paired runs inside one test (e.g. profile-equality
         comparisons) still see identical schedules, and nothing
         accumulates across a long test binary. *)
      Mpisim.Exhook.factory :=
        fun () ->
          let s = make_session ~record:false ~strategy ~chaos:no_chaos ~replay:None () in
          Some s.hooks
