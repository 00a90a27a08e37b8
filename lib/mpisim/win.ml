module V = Ds.Vec

(* Queued one-sided operations, encoded for the fence exchange as control
   triples (kind, target_pos, count) plus separate payload and op
   streams. *)
type 'a pending_get = { g_pos : int; g_count : int; mutable result : 'a array option }

type 'a queued =
  | Q_put of { pos : int; data : 'a array }
  | Q_acc of { pos : int; op : 'a Op.t; data : 'a array }
  | Q_get of 'a pending_get

type 'a t = {
  comm : Comm.t;
  dt : 'a Datatype.t;
  dt_op : 'a Op.t Datatype.t;
  segment : 'a array;
  sizes : int array;
  queues : 'a queued V.t array; (* per target, in issue order *)
  freed : bool ref;
}

(* The op-stream datatype must be the SAME value on every member of the
   window (type matching is by identity), so rank 0 creates it and ships it
   through an existentially packed envelope; receivers recover the typing
   with the window datatype's witness. *)
type packed_op_dt = Packed_op_dt : 'x Datatype.t * 'x Op.t Datatype.t -> packed_op_dt

let dt_envelope : packed_op_dt Datatype.t =
  Datatype.custom ~name:"MPI_Win_handle" ~extent:16 ()

let fresh_op_dt (type a) (_ : a Datatype.t) : a Op.t Datatype.t =
  Datatype.custom ~default:(Op.of_fun (fun a _ -> a)) ~name:"win_op" ~extent:8 ()

let distribute_op_dt (type a) comm (dt : a Datatype.t) : a Op.t Datatype.t =
  let tag = Comm.next_collective_tag comm in
  let p = Comm.size comm and r = Comm.rank comm in
  if r = 0 then begin
    let dop = fresh_op_dt dt in
    let box = [| Packed_op_dt (dt, dop) |] in
    for dst = 1 to p - 1 do
      P2p.send ~ctx:Internal comm dt_envelope box ~dst ~tag
    done;
    dop
  end
  else begin
    let box = [| Packed_op_dt (dt, fresh_op_dt dt) |] in
    ignore (P2p.recv ~ctx:Internal comm dt_envelope box ~src:0 ~tag);
    let (Packed_op_dt (dt', dop)) = box.(0) in
    match Datatype.equal_witness dt dt' with
    | Some Type.Equal -> dop
    | None -> Errors.usage "Win.create: members passed different window datatypes"
  end

(* RMA calls are spanned in category "rma"; queueing calls are
   instantaneous, the fence carries the communication time. *)
let create comm dt segment =
  let freed = ref false in
  Observe.call ~track:(Window freed) Rma comm "MPI_Win_create" @@ fun () ->
  let p = Comm.size comm in
  let sizes = Array.make p 0 in
  Collectives.allgather comm Datatype.int ~sendbuf:[| Array.length segment |] ~recvbuf:sizes
    ~count:1;
  {
    comm;
    dt;
    dt_op = distribute_op_dt comm dt;
    segment;
    sizes;
    queues = Array.init p (fun _ -> V.create ());
    freed;
  }

let free win = Observe.call Rma win.comm "MPI_Win_free" (fun () -> win.freed := true)

let size_of win target = win.sizes.(target)

let check_range win ~what ~target ~target_pos ~count =
  if target < 0 || target >= Comm.size win.comm then
    Errors.usage "Win.%s: bad target rank %d" what target;
  if target_pos < 0 || count < 0 || target_pos + count > win.sizes.(target) then
    Errors.usage "Win.%s: window range [%d, %d) exceeds target segment of %d elements" what
      target_pos (target_pos + count) win.sizes.(target)

let put win ~target ~target_pos data =
  check_range win ~what:"put" ~target ~target_pos ~count:(Array.length data);
  Observe.call Rma win.comm "MPI_Put" @@ fun () ->
  V.push win.queues.(target) (Q_put { pos = target_pos; data = Array.copy data })

let accumulate win ~target ~target_pos op data =
  check_range win ~what:"accumulate" ~target ~target_pos ~count:(Array.length data);
  Observe.call Rma win.comm "MPI_Accumulate" @@ fun () ->
  V.push win.queues.(target) (Q_acc { pos = target_pos; op; data = Array.copy data })

let get win ~target ~target_pos ~count =
  check_range win ~what:"get" ~target ~target_pos ~count;
  Observe.call Rma win.comm "MPI_Get" @@ fun () ->
  let g = { g_pos = target_pos; g_count = count; result = None } in
  V.push win.queues.(target) (Q_get g);
  g

let get_result g =
  match g.result with
  | Some data -> data
  | None -> Errors.usage "Win.get_result: the epoch is still open (fence first)"

(* Generic irregular exchange used by the fence: counts are transposed with
   an alltoall, then one alltoallv moves the data. *)
let exchange_v comm dt ~fill (outgoing : 'x V.t array) =
  let p = Comm.size comm in
  let scounts = Array.map V.length outgoing in
  let sdispls = Collectives.exclusive_scan scounts in
  let sendbuf = Array.make (max 1 (Array.fold_left ( + ) 0 scounts)) fill in
  Array.iteri (fun t v -> V.iteri (fun i x -> sendbuf.(sdispls.(t) + i) <- x) v) outgoing;
  let rcounts = Array.make p 0 in
  Collectives.alltoall comm Datatype.int ~sendbuf:scounts ~recvbuf:rcounts ~count:1;
  let rdispls = Collectives.exclusive_scan rcounts in
  let total = rdispls.(p - 1) + rcounts.(p - 1) in
  let recvbuf = Array.make (max 1 total) fill in
  Collectives.alltoallv comm dt ~sendbuf ~scounts ~sdispls ~recvbuf ~rcounts ~rdispls;
  (recvbuf, rcounts, rdispls)

let fill_of win =
  match Datatype.default_elt win.dt with
  | Some d -> d
  | None ->
      (* any queued payload element serves as filler *)
      let found = ref None in
      Array.iter
        (fun q ->
          V.iter
            (function
              | Q_put { data; _ } | Q_acc { data; _ } ->
                  if Array.length data > 0 && !found = None then found := Some data.(0)
              | Q_get _ -> ())
            q)
        win.queues;
      (match !found with
      | Some x -> x
      | None ->
          if Array.length win.segment > 0 then win.segment.(0)
          else Errors.usage "Win.fence: datatype %s needs ~default" (Datatype.name win.dt))

let fence win =
  let comm = win.comm in
  Observe.call Rma comm "MPI_Win_fence" @@ fun () ->
  let p = Comm.size comm in
  (* encode the queues: control triples, payload stream, op stream, and the
     per-target list of pending gets in issue order *)
  let control = Array.init p (fun _ -> V.create ()) in
  let payload = Array.init p (fun _ -> V.create ()) in
  let ops = Array.init p (fun _ -> V.create ()) in
  let my_gets = Array.init p (fun _ -> V.create ()) in
  Array.iteri
    (fun target q ->
      V.iter
        (function
          | Q_put { pos; data } ->
              V.push control.(target) 0;
              V.push control.(target) pos;
              V.push control.(target) (Array.length data);
              Array.iter (V.push payload.(target)) data
          | Q_acc { pos; op; data } ->
              V.push control.(target) 1;
              V.push control.(target) pos;
              V.push control.(target) (Array.length data);
              Array.iter (V.push payload.(target)) data;
              V.push ops.(target) op
          | Q_get g ->
              V.push control.(target) 2;
              V.push control.(target) g.g_pos;
              V.push control.(target) g.g_count;
              V.push my_gets.(target) g)
        q;
      V.clear q)
    win.queues;
  let fill = fill_of win in
  let ctl, ctl_counts, ctl_displs = exchange_v comm Datatype.int ~fill:0 control in
  let pay, _, pay_displs = exchange_v comm win.dt ~fill payload in
  let op_fill = Op.of_fun (fun a _ -> a) in
  let opv, _, op_displs = exchange_v comm win.dt_op ~fill:op_fill ops in
  (* apply at the target, origins in rank order, ops in issue order *)
  let replies = Array.init p (fun _ -> V.create ()) in
  let applied = ref 0 in
  for origin = 0 to p - 1 do
    let c = ref ctl_displs.(origin) in
    let stop = ctl_displs.(origin) + ctl_counts.(origin) in
    let pcur = ref pay_displs.(origin) in
    let ocur = ref op_displs.(origin) in
    while !c < stop do
      let kind = ctl.(!c) and pos = ctl.(!c + 1) and count = ctl.(!c + 2) in
      c := !c + 3;
      (match kind with
      | 0 ->
          Array.blit pay !pcur win.segment pos count;
          pcur := !pcur + count
      | 1 ->
          let op = opv.(!ocur) in
          incr ocur;
          for i = 0 to count - 1 do
            win.segment.(pos + i) <- Op.apply op win.segment.(pos + i) pay.(!pcur + i)
          done;
          pcur := !pcur + count
      | 2 ->
          for i = 0 to count - 1 do
            V.push replies.(origin) win.segment.(pos + i)
          done
      | _ -> Errors.usage "Win.fence: corrupt control stream");
      applied := !applied + count
    done
  done;
  Comm.compute comm (4.0e-9 *. float_of_int !applied);
  (* answer the gets *)
  let rep, _, rep_displs = exchange_v comm win.dt ~fill replies in
  for target = 0 to p - 1 do
    let cursor = ref rep_displs.(target) in
    V.iter
      (fun g ->
        g.result <- Some (Array.sub rep !cursor g.g_count);
        cursor := !cursor + g.g_count)
      my_gets.(target)
  done;
  Collectives.barrier comm
