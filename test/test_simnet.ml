(* Tests for the discrete-event engine, priority queue, RNG and network
   model. *)

open Simnet

let test_pqueue_order () =
  let q = Pqueue.create () in
  (* owner doubles as the payload identity in the monomorphic queue *)
  Pqueue.push q ~time:2.0 ~seq:1 ~owner:1 (fun () -> ());
  Pqueue.push q ~time:1.0 ~seq:2 ~owner:2 (fun () -> ());
  Pqueue.push q ~time:2.0 ~seq:0 ~owner:3 (fun () -> ());
  let pop () = match Pqueue.pop_min q with Some (_, _, o, _) -> o | None -> -1 in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  let x4 = pop () in
  Alcotest.(check (list int)) "ordering" [ 2; 3; 1; -1 ] [ x1; x2; x3; x4 ]

let prop_pqueue_sorted =
  Tutil.qtest "pqueue pops sorted" QCheck2.Gen.(list (pair (float_bound_exclusive 100.0) nat))
    (fun entries ->
      let q = Pqueue.create () in
      List.iteri (fun i (t, _) -> Pqueue.push q ~time:t ~seq:i ~owner:(i land 0xFFFF) (fun () -> ())) entries;
      let rec drain acc =
        match Pqueue.pop_min q with
        | Some (t, s, _, _) -> drain ((t, s) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      List.sort compare popped = popped)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "same stream" true (xs = ys);
  let c = Rng.split (Rng.create 42L) 1 and d = Rng.split (Rng.create 42L) 2 in
  Alcotest.(check bool) "split streams differ" true (Rng.int64 c <> Rng.int64 d)

let test_rng_ranges () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_engine_delay_order () =
  let e = Engine.create () in
  let log = ref [] in
  let _ =
    Engine.spawn e ~label:"a" (fun () ->
        Engine.delay e 2.0;
        log := "a2" :: !log)
  in
  let _ =
    Engine.spawn e ~label:"b" (fun () ->
        Engine.delay e 1.0;
        log := "b1" :: !log;
        Engine.delay e 2.0;
        log := "b3" :: !log)
  in
  Engine.run e;
  Alcotest.(check (list string)) "event order" [ "b1"; "a2"; "b3" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 3.0 (Engine.now e)

let test_engine_suspend_resume () =
  let e = Engine.create () in
  let slot = ref None in
  let got = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        let v = Engine.suspend e (fun r -> slot := Some r) in
        got := v)
  in
  Engine.schedule e ~delay:5.0 (fun () ->
      match !slot with Some r -> Engine.resume r 42 | None -> Alcotest.fail "not parked");
  Engine.run e;
  Alcotest.(check int) "resumed value" 42 !got;
  Alcotest.(check (float 1e-9)) "resumed at" 5.0 (Engine.now e)

let test_engine_fail_resumer () =
  let e = Engine.create () in
  let caught = ref false in
  let slot = ref None in
  let _ =
    Engine.spawn e (fun () ->
        match Engine.suspend e (fun r -> slot := Some r) with
        | (_ : int) -> ()
        | exception Not_found -> caught := true)
  in
  Engine.schedule e ~delay:1.0 (fun () -> Engine.fail (Option.get !slot) Not_found);
  Engine.run e;
  Alcotest.(check bool) "exception delivered at suspension point" true !caught

let test_engine_deadlock_detection () =
  let e = Engine.create () in
  let _ = Engine.spawn e ~label:"stuck" (fun () -> ignore (Engine.suspend e (fun _ -> ()))) in
  (match Engine.run e with
  | () -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock fibers ->
      Alcotest.(check int) "one parked fiber" 1 (List.length fibers);
      Alcotest.(check bool) "label reported" true
        (String.length (List.hd fibers) > 0 && String.sub (List.hd fibers) 0 5 = "stuck"))

let test_engine_kill () =
  let e = Engine.create () in
  let reached = ref false in
  let fiber =
    Engine.spawn e (fun () ->
        Engine.delay e 10.0;
        reached := true)
  in
  Engine.schedule e ~delay:1.0 (fun () -> Engine.kill e fiber);
  Engine.run e;
  Alcotest.(check bool) "killed before resumption" false !reached;
  Alcotest.(check bool) "not alive" false (Engine.alive fiber)

let test_engine_one_shot_resumer () =
  let e = Engine.create () in
  let slot = ref None in
  let count = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        let (_ : int) = Engine.suspend e (fun r -> slot := Some r) in
        incr count)
  in
  Engine.schedule e ~delay:1.0 (fun () ->
      let r = Option.get !slot in
      Engine.resume r 1;
      Engine.resume r 2 (* second resume must be ignored *));
  Engine.run e;
  Alcotest.(check int) "resumed exactly once" 1 !count

(* [delay_until] parks once at an absolute time.  The oracle for "exactly"
   is the clock that sequential [delay] calls reach: folding the same
   costs from [now] must land on the same float, bit for bit. *)
let test_engine_delay_until () =
  let costs = [ 0.2; 0.3; 1e-9; 7.0e-8 ] in
  let end_of f =
    let e = Engine.create () in
    let _ = Engine.spawn e (fun () -> Engine.delay e 0.1; f e) in
    Engine.run e;
    (Engine.now e, Engine.events_processed e)
  in
  let seq_time, seq_events = end_of (fun e -> List.iter (Engine.delay e) costs) in
  let until_time, until_events =
    end_of (fun e -> Engine.delay_until e (List.fold_left ( +. ) (Engine.now e) costs))
  in
  Alcotest.(check int64) "wake-up bits" (Int64.bits_of_float seq_time)
    (Int64.bits_of_float until_time);
  Alcotest.(check int) "one park instead of four" (seq_events - 3) until_events;
  (* past times and NaN are rejected; [now] itself is a zero-length park *)
  let e = Engine.create () in
  let rejected = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        Engine.delay e 1.0;
        List.iter
          (fun time ->
            match Engine.delay_until e time with
            | () -> Alcotest.failf "delay_until %h accepted at now = 1.0" time
            | exception Invalid_argument _ -> incr rejected)
          [ 0.5; Float.nan; Float.pred 1.0 ];
        Engine.delay_until e 1.0)
  in
  Engine.run e;
  Alcotest.(check int) "past times and NaN rejected" 3 !rejected;
  Alcotest.(check (float 0.0)) "clock unmoved" 1.0 (Engine.now e)

let test_engine_delay_until_kill () =
  let e = Engine.create () in
  let outcome = ref "none" in
  let fiber =
    Engine.spawn e (fun () ->
        match Engine.delay_until e 10.0 with
        | () -> outcome := "resumed"
        | exception Engine.Killed ->
            outcome := Printf.sprintf "killed at %g" (Engine.now e);
            raise Engine.Killed)
  in
  Engine.schedule e ~delay:1.0 (fun () -> Engine.kill e fiber);
  Engine.run e;
  Alcotest.(check string) "Killed at the wake-up" "killed at 10" !outcome;
  Alcotest.(check bool) "not alive" false (Engine.alive fiber)

let test_engine_delay_until_observed () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.set_park_observer e
    (Some
       (fun ~tag ~kind ~parked_at ~resumed_at ->
         if tag = 7 then seen := (kind, parked_at, resumed_at) :: !seen));
  let _ = Engine.spawn e ~tag:7 (fun () -> Engine.delay e 0.5; Engine.delay_until e 2.25) in
  Engine.run e;
  match List.rev !seen with
  | [ (Engine.Park_delay, 0.0, 0.5); (Engine.Park_delay, 0.5, 2.25) ] -> ()
  | _ -> Alcotest.failf "unexpected park intervals (%d seen)" (List.length !seen)

(* Same-time events still fire in scheduling order: a [delay_until]
   scheduled at t=0 for t=2 precedes a callback and a [delay] that are
   scheduled later for the same t=2. *)
let test_engine_delay_until_ties () =
  let e = Engine.create () in
  let log = ref [] in
  let _ =
    Engine.spawn e (fun () ->
        Engine.delay_until e 2.0;
        log := "until" :: !log)
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.delay e 1.0;
        Engine.schedule e ~delay:1.0 (fun () -> log := "callback" :: !log);
        Engine.delay e 1.0;
        log := "delay" :: !log)
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.delay e 1.5;
        Engine.delay_until e 2.0;
        log := "until late" :: !log)
  in
  Engine.run e;
  Alcotest.(check (list string)) "scheduling order"
    [ "until"; "callback"; "delay"; "until late" ] (List.rev !log)

(* ---- reserved slots -------------------------------------------------

   [Mini] is the smallest client of a reserved slot: a completion that
   either schedules its event eagerly or reserves the slot, settles on
   read, and pushes the slot only when a fiber blocks on it. *)
module Mini = struct
  type t = {
    e : Engine.t;
    mutable fired : bool;
    mutable due : (int * int) option; (* time bits, seq *)
    mutable waiter : unit Engine.resumer option;
  }

  let fire m () =
    m.fired <- true;
    match m.waiter with
    | Some w ->
        m.waiter <- None;
        Engine.resume w ()
    | None -> ()

  let start e ~eager ~at =
    let m = { e; fired = false; due = None; waiter = None } in
    if eager then Engine.schedule e ~delay:(at -. Engine.now e) (fire m)
    else begin
      let bits = Engine.reserve e ~at in
      m.due <- Some (bits, Engine.reserved_seq e)
    end;
    m

  let settle m =
    match m.due with
    | Some (time_bits, seq) when Engine.passed m.e ~time_bits ~seq ->
        m.due <- None;
        m.fired <- true
    | _ -> ()

  let is_done m =
    settle m;
    m.fired

  let wait m =
    settle m;
    if not m.fired then begin
      (match m.due with
      | Some (time_bits, seq) ->
          m.due <- None;
          Engine.push_reserved m.e ~time_bits ~seq (fire m)
      | None -> ());
      Engine.suspend m.e (fun r -> m.waiter <- Some r)
    end
end

(* A slot reserved between two same-time events sits between them: the
   earlier one sees it unpassed, the later one passed, and pushed it
   fires between them. *)
let test_reserved_seq_order () =
  List.iter
    (fun push ->
      let e = Engine.create () in
      let log = ref [] in
      let note s = log := s :: !log in
      let _ =
        Engine.spawn e (fun () ->
            let slot = ref None in
            Engine.schedule e ~delay:1.0 (fun () ->
                let time_bits, seq = Option.get !slot in
                note (Printf.sprintf "before passed=%b" (Engine.passed e ~time_bits ~seq)));
            let time_bits = Engine.reserve e ~at:1.0 in
            let seq = Engine.reserved_seq e in
            slot := Some (time_bits, seq);
            Engine.schedule e ~delay:1.0 (fun () ->
                note (Printf.sprintf "after passed=%b" (Engine.passed e ~time_bits ~seq)));
            if push then Engine.push_reserved e ~time_bits ~seq (fun () -> note "slot"))
      in
      Engine.run e;
      let want =
        if push then [ "before passed=false"; "slot"; "after passed=true" ]
        else [ "before passed=false"; "after passed=true" ]
      in
      Alcotest.(check (list string)) (Printf.sprintf "order (pushed %b)" push) want (List.rev !log);
      Alcotest.(check int) "elided" (if push then 0 else 1) (Engine.elided e))
    [ false; true ]

(* A waiter on a reserved slot wakes at the same time, in the same order
   among same-time events, as on an eager event; a read after the slot
   passed costs no event at all. *)
let test_reserved_waiter_matches_eager () =
  let scenario ~eager ~wait_at =
    let e = Engine.create () in
    let log = ref [] in
    let note s = log := Printf.sprintf "%s@%h" s (Engine.now e) :: !log in
    let m = ref None in
    let _ =
      Engine.spawn e ~label:"early" (fun () ->
          Engine.delay e 0.25;
          Engine.schedule e ~delay:0.75 (fun () ->
              note (Printf.sprintf "early cb done=%b" (Mini.is_done (Option.get !m)))))
    in
    let _ =
      Engine.spawn e ~label:"owner" (fun () ->
          Engine.delay e 0.5;
          m := Some (Mini.start e ~eager ~at:1.0);
          Engine.delay e (wait_at -. 0.5);
          Mini.wait (Option.get !m);
          note "owner woke")
    in
    let _ =
      Engine.spawn e ~label:"late" (fun () ->
          Engine.delay e 0.5;
          Engine.delay e 0.0;
          Engine.schedule e ~delay:0.5 (fun () ->
              note (Printf.sprintf "late cb done=%b" (Mini.is_done (Option.get !m))));
          Engine.delay e 0.5;
          note "late fiber")
    in
    Engine.run e;
    (List.rev !log, Engine.events_processed e, Engine.elided e, Engine.now e)
  in
  List.iter
    (fun wait_at ->
      let log_e, ev_e, el_e, now_e = scenario ~eager:true ~wait_at in
      let log_r, ev_r, el_r, now_r = scenario ~eager:false ~wait_at in
      let what = Printf.sprintf "wait at %g" wait_at in
      Alcotest.(check (list string)) (what ^ ": log") log_e log_r;
      Alcotest.(check int) (what ^ ": eager elides nothing") 0 el_e;
      Alcotest.(check int) (what ^ ": events + elided") ev_e (ev_r + el_r);
      Alcotest.(check int) (what ^ ": elided") (if wait_at < 1.0 then 0 else 1) el_r;
      Alcotest.(check int64) (what ^ ": end clock") (Int64.bits_of_float now_e)
        (Int64.bits_of_float now_r))
    [ 0.5; 0.75; 2.0 ]

(* The run ends at the latest reserved time when no event follows it.
   At now = 2^-53 a slot for 1 + epsilon lands on 1.0, the float
   [schedule ~delay:(at -. now)] computes, not on [at]. *)
let test_reserved_end_clock () =
  let e = Engine.create () in
  let at = 1.0 +. epsilon_float in
  let _ =
    Engine.spawn e (fun () ->
        Engine.delay e (ldexp 1.0 (-53));
        ignore (Engine.reserve e ~at : int))
  in
  Engine.run e;
  Alcotest.(check int64) "clock at the reserved time" (Int64.bits_of_float 1.0)
    (Int64.bits_of_float (Engine.now e));
  Alcotest.(check int) "elided" 1 (Engine.elided e);
  (* the eager event gives the same clock *)
  let e' = Engine.create () in
  let _ =
    Engine.spawn e' (fun () ->
        Engine.delay e' (ldexp 1.0 (-53));
        Engine.schedule e' ~delay:(at -. Engine.now e') ignore)
  in
  Engine.run e';
  Alcotest.(check int64) "eager clock" (Int64.bits_of_float (Engine.now e'))
    (Int64.bits_of_float (Engine.now e));
  (* the key's time survives its int encoding at every magnitude *)
  List.iter
    (fun at ->
      let e = Engine.create () in
      let _ = Engine.spawn e (fun () -> ignore (Engine.reserve e ~at : int)) in
      Engine.run e;
      Alcotest.(check int64) (Printf.sprintf "end clock %h" at) (Int64.bits_of_float at)
        (Int64.bits_of_float (Engine.now e)))
    [ 0.0; 4.9e-324; 0.5; 2.0; 5.0; 1e300 ]

(* A reserved time past the deadline trips it as its event would have,
   with the same reported time, whether or not a later event follows. *)
let test_reserved_deadline () =
  List.iter
    (fun later ->
      let e = Engine.create () in
      Engine.set_deadline e 2.0;
      let _ =
        Engine.spawn e (fun () ->
            Engine.delay e 1.0;
            ignore (Engine.reserve e ~at:3.0 : int);
            if later then Engine.schedule e ~delay:3.0 ignore)
      in
      match Engine.run e with
      | () -> Alcotest.fail "deadline not enforced"
      | exception Engine.Limit_exceeded { time; _ } ->
          Alcotest.(check (float 0.0)) (Printf.sprintf "reported time (later event %b)" later)
            3.0 time)
    [ false; true ]

(* A fiber killed while parked on a pushed reservation gets [Killed] when
   the slot fires, as it would on the eager event. *)
let test_reserved_kill () =
  let outcome eager =
    let e = Engine.create () in
    let outcome = ref "none" in
    let fiber =
      Engine.spawn e (fun () ->
          let m = Mini.start e ~eager ~at:5.0 in
          match Mini.wait m with
          | () -> outcome := "resumed"
          | exception Engine.Killed ->
              outcome := Printf.sprintf "killed at %g" (Engine.now e);
              raise Engine.Killed)
    in
    Engine.schedule e ~delay:1.0 (fun () -> Engine.kill e fiber);
    Engine.run e;
    Alcotest.(check bool) "not alive" false (Engine.alive fiber);
    (!outcome, Engine.events_processed e)
  in
  let reserved = outcome false in
  Alcotest.(check string) "Killed at the slot" "killed at 5" (fst reserved);
  Alcotest.(check (pair string int)) "as on the eager event" (outcome true) reserved

let test_netmodel_latency_bandwidth () =
  let p = Netmodel.default in
  let t = Netmodel.create p ~ranks:2 in
  let injected, arrival = Netmodel.transfer t ~now:0.0 ~src:0 ~dst:1 ~bytes:0 ~pack_factor:1.0 in
  Alcotest.(check bool) "zero-byte message costs latency" true
    (arrival >= p.latency && arrival < p.latency +. 2e-6);
  Alcotest.(check bool) "injection before arrival" true (injected < arrival);
  let _, arrival_big =
    Netmodel.transfer (Netmodel.create p ~ranks:2) ~now:0.0 ~src:0 ~dst:1 ~bytes:1_000_000
      ~pack_factor:1.0
  in
  Alcotest.(check bool) "1MB dominated by bandwidth" true
    (arrival_big > 0.9 *. (1_000_000.0 *. p.byte_time))

let test_netmodel_port_serialization () =
  let p = Netmodel.default in
  let t = Netmodel.create p ~ranks:3 in
  let _, a1 = Netmodel.transfer t ~now:0.0 ~src:0 ~dst:1 ~bytes:100_000 ~pack_factor:1.0 in
  let _, a2 = Netmodel.transfer t ~now:0.0 ~src:0 ~dst:2 ~bytes:100_000 ~pack_factor:1.0 in
  Alcotest.(check bool) "second message waits for the sender port" true (a2 > a1);
  (* two different senders to different receivers do not serialize *)
  let t2 = Netmodel.create p ~ranks:4 in
  let _, b1 = Netmodel.transfer t2 ~now:0.0 ~src:0 ~dst:1 ~bytes:100_000 ~pack_factor:1.0 in
  let _, b2 = Netmodel.transfer t2 ~now:0.0 ~src:2 ~dst:3 ~bytes:100_000 ~pack_factor:1.0 in
  Alcotest.(check (float 1e-12)) "parallel links" b1 b2

let test_netmodel_pack_factor () =
  let p = Netmodel.default in
  let t = Netmodel.create p ~ranks:2 in
  let _, a = Netmodel.transfer t ~now:0.0 ~src:0 ~dst:1 ~bytes:100_000 ~pack_factor:1.0 in
  let t2 = Netmodel.create p ~ranks:2 in
  let _, b = Netmodel.transfer t2 ~now:0.0 ~src:0 ~dst:1 ~bytes:100_000 ~pack_factor:2.0 in
  Alcotest.(check bool) "pack factor slows transfer" true (b > a)

let test_netmodel_self_message () =
  let p = Netmodel.default in
  let t = Netmodel.create p ~ranks:2 in
  let _, a = Netmodel.transfer t ~now:0.0 ~src:0 ~dst:0 ~bytes:1000 ~pack_factor:1.0 in
  Alcotest.(check bool) "self message cheaper than latency" true (a < p.latency)

let suite =
  [
    Alcotest.test_case "pqueue order with seq tie-break" `Quick test_pqueue_order;
    prop_pqueue_sorted;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "engine delay ordering" `Quick test_engine_delay_order;
    Alcotest.test_case "engine suspend/resume" `Quick test_engine_suspend_resume;
    Alcotest.test_case "engine failing resumer" `Quick test_engine_fail_resumer;
    Alcotest.test_case "engine deadlock detection" `Quick test_engine_deadlock_detection;
    Alcotest.test_case "engine kill" `Quick test_engine_kill;
    Alcotest.test_case "engine one-shot resumer" `Quick test_engine_one_shot_resumer;
    Alcotest.test_case "engine delay_until: exact time, bad times" `Quick test_engine_delay_until;
    Alcotest.test_case "engine delay_until: killed while parked" `Quick
      test_engine_delay_until_kill;
    Alcotest.test_case "engine delay_until: park observer" `Quick test_engine_delay_until_observed;
    Alcotest.test_case "engine delay_until: same-time ties" `Quick test_engine_delay_until_ties;
    Alcotest.test_case "reserved slot: same-time seq order" `Quick test_reserved_seq_order;
    Alcotest.test_case "reserved slot: waiter wakes as on an eager event" `Quick
      test_reserved_waiter_matches_eager;
    Alcotest.test_case "reserved slot: run ends at the latest reserved time" `Quick
      test_reserved_end_clock;
    Alcotest.test_case "reserved slot: deadline" `Quick test_reserved_deadline;
    Alcotest.test_case "reserved slot: killed while parked" `Quick test_reserved_kill;
    Alcotest.test_case "netmodel latency/bandwidth" `Quick test_netmodel_latency_bandwidth;
    Alcotest.test_case "netmodel port serialization" `Quick test_netmodel_port_serialization;
    Alcotest.test_case "netmodel pack factor" `Quick test_netmodel_pack_factor;
    Alcotest.test_case "netmodel self message" `Quick test_netmodel_self_message;
  ]
