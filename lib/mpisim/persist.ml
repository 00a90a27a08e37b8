type phase = Inactive | Active | Freed

type t = {
  op : string;
  partitions : int;
  req : Request.t;
  mutable phase : phase;
  mutable starts : int;
  start_impl : t -> unit;
  around_wait : t -> (unit -> Request.status) -> Request.status;
  pready_impl : (t -> int -> unit) option;
  parrived_impl : (t -> int -> bool) option;
  cancel_impl : (t -> unit) option;
}

let make engine ~op ?(partitions = 1) ?pready ?parrived ?cancel
    ?(around_wait = fun _ f -> f ()) start =
  if partitions <= 0 then
    Errors.usage "%s: partitions %d must be positive" op partitions;
  {
    op;
    partitions;
    (* the one request reused across rounds; born inactive (= complete) *)
    req = Request.completed_now engine Request.empty_status;
    phase = Inactive;
    starts = 0;
    start_impl = start;
    around_wait;
    pready_impl = pready;
    parrived_impl = parrived;
    cancel_impl = cancel;
  }

let request h = h.req
let starts h = h.starts
let is_active h = h.phase = Active
let is_freed h = h.phase = Freed

let start h =
  (match h.phase with
  | Freed -> Errors.usage "%s: started after MPI_Request_free" h.op
  | Active -> Errors.usage "%s: started while still active" h.op
  | Inactive -> ());
  h.starts <- h.starts + 1;
  Request.reactivate h.req;
  h.phase <- Active;
  h.start_impl h

let startall hs = List.iter start hs

let wait h =
  match h.phase with
  | Freed -> Errors.usage "%s: wait after MPI_Request_free" h.op
  | Inactive -> Request.empty_status (* waiting on an inactive request *)
  | Active ->
      (* the handle goes back to inactive even when the round failed
         (ULFM abort): the program may still free it *)
      Fun.protect
        ~finally:(fun () -> h.phase <- Inactive)
        (fun () -> h.around_wait h (fun () -> Request.wait h.req))

let test h =
  match h.phase with
  | Freed -> Errors.usage "%s: test after MPI_Request_free" h.op
  | Inactive -> Some Request.empty_status
  | Active -> (
      match Request.test h.req with
      | Some status ->
          h.phase <- Inactive;
          Some status
      | None -> None
      | exception e ->
          h.phase <- Inactive;
          raise e)

let cancel h =
  match h.phase with
  | Freed -> Errors.usage "%s: cancel after MPI_Request_free" h.op
  | Inactive -> ()
  | Active -> (
      match h.cancel_impl with
      | None -> Errors.usage "%s: operation is not cancellable" h.op
      | Some c ->
          c h;
          h.phase <- Inactive)

let free h =
  match h.phase with
  | Freed -> Errors.usage "%s: double MPI_Request_free" h.op
  | Active -> Errors.usage "%s: freed while still active" h.op
  | Inactive -> h.phase <- Freed

let check_partition h i =
  if i < 0 || i >= h.partitions then
    Errors.usage "%s: partition %d out of range [0, %d)" h.op i h.partitions

let pready h i =
  check_partition h i;
  match h.phase with
  | Freed -> Errors.usage "%s: pready after MPI_Request_free" h.op
  | Inactive -> Errors.usage "%s: pready on an inactive request" h.op
  | Active -> (
      match h.pready_impl with
      | None -> Errors.usage "%s: pready on a non-partitioned operation" h.op
      | Some f -> f h i)

let parrived h i =
  check_partition h i;
  match h.phase with
  | Freed -> Errors.usage "%s: parrived after MPI_Request_free" h.op
  | Inactive | Active -> (
      match h.parrived_impl with
      | None -> Errors.usage "%s: parrived on a non-partitioned operation" h.op
      | Some f -> f h i)
