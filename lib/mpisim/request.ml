module Engine = Simnet.Engine

type status = { source : int; tag : int; count : int }
type state =
  | Pending
  | Complete of status
  | Failed of exn
  | Due of { time_bits : int; seq : int; st : status }
      (* completes with [st] at the reserved engine slot (time, seq) *)

type t = {
  engine : Engine.t;
  mutable state : state;
  mutable waiter : status Engine.resumer option;
  mutable observed : bool;  (* did the program ever see this request complete? *)
}

let create engine = { engine; state = Pending; waiter = None; observed = false }
let completed_now engine status = { engine; state = Complete status; waiter = None; observed = false }

(* Status of an operation that never ran: MPI_Status set to "empty"
   (MPI-4 §3.7.3) — used by persistent requests waited on while inactive. *)
let empty_status = { source = -1; tag = -1; count = 0 }

(* A due request whose slot has passed is complete: its completion event
   would have fired by now.  Every read settles first. *)
let settle r =
  match r.state with
  | Due d when Engine.passed r.engine ~time_bits:d.time_bits ~seq:d.seq ->
      r.state <- Complete d.st
  | Pending | Complete _ | Failed _ | Due _ -> ()

let due r ~at st =
  (match r.state with
  | Pending -> ()
  | Complete _ | Failed _ | Due _ -> Errors.usage "Request.due: request is not pending");
  let time_bits = Engine.reserve r.engine ~at in
  r.state <- Due { time_bits; seq = Engine.reserved_seq r.engine; st }

let reactivate r =
  settle r;
  match r.state with
  | Pending | Due _ -> Errors.usage "Request.reactivate: request is still active"
  | Complete _ | Failed _ ->
      r.state <- Pending;
      r.waiter <- None;
      r.observed <- false

let notify r =
  match r.waiter with
  | None -> ()
  | Some w -> (
      r.waiter <- None;
      match r.state with
      | Complete status -> Engine.resume w status
      | Failed e -> Engine.fail w e
      | Pending | Due _ -> assert false)

let complete r status =
  (match r.state with
  | Pending -> r.state <- Complete status
  | Complete _ | Failed _ -> Errors.usage "Request.complete: request already completed"
  | Due _ -> Errors.usage "Request.complete: request completes at its reserved slot");
  notify r

(* A fiber is about to block on [r]: an unpassed slot becomes the event it
   stands for, and [r] is pending on it like an eagerly scheduled one. *)
let push_due r =
  match r.state with
  | Due { time_bits; seq; st } ->
      r.state <- Pending;
      Engine.push_reserved r.engine ~time_bits ~seq (fun () -> complete r st)
  | Pending | Complete _ | Failed _ -> ()

let abort r e =
  settle r;
  match r.state with
  | Pending | Due _ ->
      (* an unpassed slot is dropped with the completion it stood for *)
      r.state <- Failed e;
      notify r
  | Complete _ | Failed _ -> () (* completion won the race; failure is moot *)

let is_complete r =
  settle r;
  match r.state with
  | Pending | Due _ -> false
  | Complete _ | Failed _ ->
      r.observed <- true;
      true

let wait r =
  r.observed <- true;
  settle r;
  match r.state with
  | Complete status -> status
  | Failed e -> raise e
  | Pending | Due _ ->
      push_due r;
      Engine.suspend r.engine (fun resumer -> r.waiter <- Some resumer)

let test r =
  settle r;
  match r.state with
  | Complete status ->
      r.observed <- true;
      Some status
  | Failed e ->
      r.observed <- true;
      raise e
  | Pending | Due _ -> None

let was_observed r = r.observed

let is_failed r =
  settle r;
  match r.state with Failed _ -> true | Pending | Complete _ | Due _ -> false

let wait_all rs = List.map wait rs

let wait_any rs =
  if rs = [] then Errors.usage "Request.wait_any: empty request list";
  let arr = Array.of_list rs in
  let engine = arr.(0).engine in
  let find_ready () =
    let ready = ref [] in
    Array.iteri
      (fun i r ->
        settle r;
        match r.state with
        | Pending | Due _ -> ()
        | Complete _ | Failed _ -> ready := i :: !ready)
      arr;
    match List.rev !ready with
    | [] -> None
    | ready ->
        (* Which of several simultaneously complete requests a wait-any
           observes is a nondeterminism point; without exploration the
           chooser answers 0, the first ready — the incumbent behaviour.
           Only the observed request counts as seen for leak checking. *)
        let ids = Array.of_list ready in
        let i = ids.(Engine.choose engine ~kind:Completion ~ids) in
        let r = arr.(i) in
        r.observed <- true;
        (match r.state with
        | Complete status -> Some (i, status)
        | Failed e -> raise e
        | Pending | Due _ -> assert false)
  in
  match find_ready () with
  | Some res -> res
  | None ->
      (* Park once; the engine's resumer is one-shot, so later completions
         of the other requests are recorded in their state but do not wake
         us twice.  Every unpassed slot in the list becomes its event
         first, as if it had been scheduled eagerly. *)
      List.iter push_due rs;
      let _ = Engine.suspend engine (fun resumer -> List.iter (fun r -> r.waiter <- Some resumer) rs)
      in
      List.iter (fun r -> r.waiter <- None) rs;
      (match find_ready () with Some res -> res | None -> assert false)
