(* Discrete-event engine on the exact-order event heap ({!Pqueue}).

   Events fire in (time, seq) order: same-time events run in the order
   they were scheduled.  The structural choices that keep it fast:

   - the event queue is a binary heap over flat arrays with unboxed
     float times, and its push/pop protocol allocates nothing;
   - the simulated clock lives in a one-element flat float array
     ([t.clock]), so advancing it and computing [clock + delay] on push
     never box a float (mixed-record float fields box on every store in
     non-flambda OCaml; float-array elements do not);
   - the steady-state event loop allocates nothing: pop writes into
     scratch cells, deadline checks compare unboxed, and queue entries
     carry the owner tag natively instead of an [(owner, fn)] tuple;
   - finished fibers are pruned: the fiber table is a vector compacted
     (in spawn order) once dead entries dominate, so a long-running
     simulation no longer accretes an unbounded fiber list;
   - the host profiler ({!Profile}) observes the run when enabled and
     costs one immediate compare per [run] when off;
   - a completion nobody may wait on takes a reserved (time, seq) slot
     instead of an event ([reserve]); it enters the heap only if a fiber
     blocks on it before the slot's key has passed ([push_reserved]). *)

open Effect
open Effect.Deep

exception Killed
exception Deadlock of string list

exception Limit_exceeded of { time : float; events : int }

type fiber_state = Running | Parked | Done | Dead

type fiber = { flabel : string; ftag : int; mutable state : fiber_state }

type park_kind = Park_delay | Park_suspend

type park_observer =
  tag:int -> kind:park_kind -> parked_at:float -> resumed_at:float -> unit

type decision_kind = Ready | Match | Completion | Chaos

type chooser = kind:decision_kind -> ids:int array -> int

(* Queue entries carry the tag of the fiber they will resume (or -1 for
   detached callbacks) so a chooser can make owner-aware decisions (PCT
   priorities are per-owner). *)
type t = {
  clock : float array; (* one-element cell: flat float storage, no boxing *)
  queue : Pqueue.t;
  mutable seq : int;
  mutable cur_seq : int; (* seq of the executing event; max_int outside [run] *)
  mutable events : int;
  mutable elided : int; (* reservations never pushed *)
  (* [0]: latest reserved time, [1]: earliest reserved time past the
     deadline (infinity if none) *)
  reserved : float array;
  mutable next_fid : int;
  fibers : fiber Ds.Vec.t; (* spawn order; compacted, for deadlock diagnostics *)
  mutable live : int; (* fibers in state Running | Parked *)
  mutable park_observer : park_observer option;
  mutable chooser : chooser option;
  mutable deadline : float;
  (* chooser-mode ready-set gather scratch (reused across decisions) *)
  g_seqs : int Ds.Vec.t;
  g_owners : int Ds.Vec.t;
  g_fns : Pqueue.event Ds.Vec.t;
}

type 'a resumer = { deliver : ('a, exn) result -> unit }

(* Effects performed by fiber code.  The engine value travels inside the
   effect payload so that one handler definition serves every engine. *)
type _ Effect.t +=
  | Delay : t * float -> unit Effect.t
  | Delay_until : t * float -> unit Effect.t
  | Suspend : t * ('a resumer -> unit) -> 'a Effect.t

let create () =
  { clock = [| 0.0 |]; queue = Pqueue.create (); seq = 0; cur_seq = max_int; events = 0;
    elided = 0; reserved = [| 0.0; infinity |]; next_fid = 0;
    fibers = Ds.Vec.create (); live = 0; park_observer = None; chooser = None;
    deadline = infinity;
    g_seqs = Ds.Vec.create (); g_owners = Ds.Vec.create (); g_fns = Ds.Vec.create () }

let set_park_observer t obs = t.park_observer <- obs
let set_chooser t c = t.chooser <- c
let set_deadline t d = t.deadline <- d

let choose t ~kind ~ids =
  let n = Array.length ids in
  if n <= 1 then 0
  else
    match t.chooser with
    | None -> 0
    | Some c ->
        let i = c ~kind ~ids in
        if i < 0 then 0 else if i >= n then n - 1 else i

let notify_park t fiber kind parked_at =
  match t.park_observer with
  | None -> ()
  | Some f ->
      f ~tag:fiber.ftag ~kind ~parked_at ~resumed_at:t.clock.(0)

let now t = t.clock.(0)
let events_processed t = t.events
let live_fibers t = t.live
let tracked_fibers t = Ds.Vec.length t.fibers

(* [owner] is a required label here: an optional argument would allocate
   a [Some] block on every scheduling operation. *)
let push t ~owner ~delay f =
  t.seq <- t.seq + 1;
  Pqueue.push_after t.queue ~base:t.clock ~delay ~seq:t.seq ~owner f

let push_at t ~owner ~time f =
  t.seq <- t.seq + 1;
  Pqueue.push t.queue ~time ~seq:t.seq ~owner f

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push t ~owner:(-1) ~delay f

(* Reserved slots.  A slot's time is stored as its IEEE bits, so a
   request keeps its key without boxing a float.  Times are non-negative:
   the sign bit is clear and the other 63 bits fit an immediate int
   (whose own sign bit is the exponent's top bit, so decoding clears the
   bit that [Int64.of_int] sign-extends). *)
let bits_of_time time = Int64.to_int (Int64.bits_of_float time)
let time_of_bits bits = Int64.float_of_bits (Int64.logand (Int64.of_int bits) Int64.max_int)

let reserve t ~at =
  let now = t.clock.(0) in
  let delay = at -. now in
  if delay < 0.0 then invalid_arg "Engine.reserve: time before now";
  (* the float [schedule t ~delay] would push at, bit for bit *)
  let time = now +. delay in
  t.seq <- t.seq + 1;
  t.elided <- t.elided + 1;
  let r = t.reserved in
  if time > r.(0) then r.(0) <- time;
  if time > t.deadline && time < r.(1) then r.(1) <- time;
  bits_of_time time

let reserved_seq t = t.seq

let passed t ~time_bits ~seq =
  let time = time_of_bits time_bits and now = t.clock.(0) in
  time < now || (time = now && seq < t.cur_seq)

let push_reserved t ~time_bits ~seq f =
  t.elided <- t.elided - 1;
  Pqueue.push t.queue ~time:(time_of_bits time_bits) ~seq ~owner:(-1) f

let elided t = t.elided
let exploring t = match t.chooser with None -> false | Some _ -> true

let alive fiber = fiber.state = Running || fiber.state = Parked
let is_parked fiber = fiber.state = Parked

(* Dead-fiber pruning: keep live entries in spawn order, drop the rest.
   Triggered only once dead fibers dominate a non-trivial table, so the
   amortized cost per retired fiber is O(1). *)
let compact_fibers t =
  let n = Ds.Vec.length t.fibers in
  if n > 64 && t.live * 2 < n then begin
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let f = Ds.Vec.get t.fibers i in
      if alive f then begin
        Ds.Vec.set t.fibers !kept f;
        incr kept
      end
    done;
    if !kept < n then Ds.Vec.resize t.fibers !kept (Ds.Vec.get t.fibers 0)
  end

(* Every transition out of Running/Parked goes through here so the live
   count stays exact. *)
let retire t fiber state =
  if alive fiber then begin
    fiber.state <- state;
    t.live <- t.live - 1;
    compact_fibers t
  end
  else fiber.state <- state

let kill t fiber = if alive fiber then retire t fiber Dead

(* Parks [fiber] for [delay]/[delay_until] and returns the event that
   wakes it (both report [Park_delay]). *)
let park_delay t fiber (k : (unit, unit) continuation) =
  fiber.state <- Parked;
  let parked_at = t.clock.(0) in
  fun () ->
    if fiber.state = Dead then discontinue k Killed
    else begin
      notify_park t fiber Park_delay parked_at;
      fiber.state <- Running;
      continue k ()
    end

let spawn t ?(label = "fiber") ?(tag = -1) f =
  t.next_fid <- t.next_fid + 1;
  let fiber =
    { flabel = Printf.sprintf "%s#%d" label t.next_fid; ftag = tag; state = Running }
  in
  Ds.Vec.push t.fibers fiber;
  t.live <- t.live + 1;
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> if fiber.state <> Dead then retire t fiber Done);
      exnc =
        (fun e ->
          match e with
          | Killed -> retire t fiber Dead
          | e ->
              retire t fiber Dead;
              raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay (t, d) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  push ~owner:fiber.ftag t ~delay:d (park_delay t fiber k))
          | Delay_until (t, time) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  push_at ~owner:fiber.ftag t ~time (park_delay t fiber k))
          | Suspend (t, register) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  fiber.state <- Parked;
                  let parked_at = t.clock.(0) in
                  let used = ref false in
                  let deliver result =
                    if not !used then begin
                      used := true;
                      push ~owner:fiber.ftag t ~delay:0.0 (fun () ->
                          if fiber.state = Dead then discontinue k Killed
                          else begin
                            notify_park t fiber Park_suspend parked_at;
                            fiber.state <- Running;
                            match result with
                            | Ok v -> continue k v
                            | Error e -> discontinue k e
                          end)
                    end
                  in
                  register { deliver })
          | _ -> None);
    }
  in
  push ~owner:fiber.ftag t ~delay:0.0 (fun () -> match_with f () handler);
  fiber

let delay t dt =
  if dt < 0.0 then invalid_arg "Engine.delay: negative delay";
  perform (Delay (t, dt))

let delay_until t time =
  if not (time >= t.clock.(0)) then invalid_arg "Engine.delay_until: time before now (or NaN)";
  perform (Delay_until (t, time))

let suspend t register = perform (Suspend (t, register))
let resume r v = r.deliver (Ok v)
let fail r e = r.deliver (Error e)

let exec t f =
  t.events <- t.events + 1;
  f ()

(* Chooser mode: gather the full same-time ready set into the scratch
   vectors (candidates in (time, seq) order, the order the chooser has
   always seen), let the chooser pick, re-push the rest with their original
   seqs so non-picked events keep their relative order. *)
let exec_chosen t =
  let time = t.clock.(0) in
  Ds.Vec.clear t.g_seqs;
  Ds.Vec.clear t.g_owners;
  Ds.Vec.clear t.g_fns;
  Ds.Vec.push t.g_seqs (Pqueue.popped_seq t.queue);
  Ds.Vec.push t.g_owners (Pqueue.popped_owner t.queue);
  Ds.Vec.push t.g_fns (Pqueue.popped_event t.queue);
  let rec gather () =
    match Pqueue.peek_time t.queue with
    | Some pt when pt = time ->
        if Pqueue.pop t.queue then begin
          Ds.Vec.push t.g_seqs (Pqueue.popped_seq t.queue);
          Ds.Vec.push t.g_owners (Pqueue.popped_owner t.queue);
          Ds.Vec.push t.g_fns (Pqueue.popped_event t.queue);
          gather ()
        end
    | _ -> ()
  in
  gather ();
  let n = Ds.Vec.length t.g_fns in
  if n = 1 then exec t (Ds.Vec.get t.g_fns 0)
  else begin
    let ids = Array.init n (Ds.Vec.get t.g_owners) in
    let pick = choose t ~kind:Ready ~ids in
    for i = 0 to n - 1 do
      if i <> pick then
        Pqueue.push t.queue ~time ~seq:(Ds.Vec.get t.g_seqs i)
          ~owner:(Ds.Vec.get t.g_owners i) (Ds.Vec.get t.g_fns i)
    done;
    let g = Ds.Vec.get t.g_fns pick in
    t.cur_seq <- Ds.Vec.get t.g_seqs pick;
    Ds.Vec.clear t.g_fns;
    exec t g
  end

let quiesce t =
  if t.live > 0 then begin
    let parked = ref [] in
    for i = Ds.Vec.length t.fibers - 1 downto 0 do
      let f = Ds.Vec.get t.fibers i in
      if f.state = Parked then parked := f.flabel :: !parked
    done;
    if !parked <> [] then raise (Deadlock !parked)
  end

let past_deadline t time =
  Limit_exceeded { time; events = t.events }

(* The queue drained: an unpushed reservation would have been the last
   event, so the clock ends at the latest reserved time, and one past the
   deadline trips it as its event would have. *)
let drain t =
  let r = t.reserved in
  if r.(1) < infinity then raise (past_deadline t r.(1));
  if r.(0) > t.clock.(0) then t.clock.(0) <- r.(0);
  quiesce t

let run_loop t =
  let rec loop () =
    if Pqueue.pop t.queue then begin
      if Pqueue.popped_time_beyond t.queue t.deadline then
        raise (past_deadline t (Float.min (Pqueue.popped_time t.queue) t.reserved.(1)));
      Pqueue.write_popped_time t.queue t.clock;
      t.cur_seq <- Pqueue.popped_seq t.queue;
      (match t.chooser with
      | None -> exec t (Pqueue.popped_event t.queue)
      | Some _ -> exec_chosen t);
      loop ()
    end
    else begin
      t.cur_seq <- max_int;
      drain t
    end
  in
  match loop () with
  | () -> ()
  | exception e ->
      t.cur_seq <- max_int;
      raise e

let run t =
  if Profile.current () = Profile.Off then run_loop t
  else begin
    let e0 = t.events in
    Fun.protect
      ~finally:(fun () ->
        Profile.add_count "engine.events" (t.events - e0);
        Profile.record_max "engine.queue_peak" (Pqueue.peak t.queue);
        Profile.record_max "engine.fibers_tracked" (Ds.Vec.length t.fibers);
        Profile.record_max "engine.fibers_live" t.live)
      (fun () -> Profile.span "engine.run" (fun () -> run_loop t))
  end
