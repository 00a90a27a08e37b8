type policy = Every_n of int | Interval of float | Daly

let policy_name = function
  | Every_n n -> Printf.sprintf "every_%d" n
  | Interval t when t = infinity -> "never"
  | Interval t -> Printf.sprintf "interval_%g" t
  | Daly -> "daly"

let young_interval ~ckpt_cost ~mtbf =
  if mtbf = infinity then infinity else sqrt (2.0 *. ckpt_cost *. mtbf)

let daly_interval ~ckpt_cost ~mtbf =
  if mtbf = infinity then infinity
  else if ckpt_cost >= 2.0 *. mtbf then mtbf
  else
    (* Daly 2006, eq. 37: sqrt(2 delta M) * (1 + r/3 + r^2/9) - delta
       with r = sqrt(delta / (2 M)). *)
    let r = sqrt (ckpt_cost /. (2.0 *. mtbf)) in
    (sqrt (2.0 *. ckpt_cost *. mtbf) *. (1.0 +. (r /. 3.0) +. (r *. r /. 9.0))) -. ckpt_cost

let predict_ckpt_cost params ~p ~bytes =
  if p <= 1 then Mpisim.Datatype.serialization_cost ~bytes
  else
    (* Pack the bundle, swap it with the buddy (the sendrecv directions
       overlap, so one message's end-to-end time), unpack is only paid on
       restore.  Plus the small allreduce agreeing on the iteration cost. *)
    let exchange = Simnet.Netmodel.msg_cost params ~bytes in
    let agree =
      List.fold_left
        (fun acc algo ->
          Float.min acc
            (Coll_algos.Cost.allreduce params ~p ~bytes:8 ~elems:1 ~op_cost:1e-9 algo))
        infinity Coll_algos.Algo.all_allreduce
    in
    Mpisim.Datatype.serialization_cost ~bytes +. exchange +. agree

type t = {
  policy : policy;
  target : float;  (* seconds between checkpoints; infinity = iteration-counted or never *)
  mutable period : int;  (* checkpoint every [period] iterations *)
  mutable since : int;  (* iterations since the last checkpoint *)
}

let create policy ~ckpt_cost ~failure_rate =
  if failure_rate < 0.0 then
    Mpisim.Errors.usage "Ckpt.Schedule.create: negative failure rate %g" failure_rate;
  let mtbf = if failure_rate = 0.0 then infinity else 1.0 /. failure_rate in
  let target, period =
    match policy with
    | Every_n n ->
        if n <= 0 then Mpisim.Errors.usage "Ckpt.Schedule.create: Every_n %d" n;
        (infinity, n)
    | Interval s ->
        if s <= 0.0 || Float.is_nan s then
          Mpisim.Errors.usage "Ckpt.Schedule.create: Interval %g" s;
        (s, 1)
    | Daly -> (daly_interval ~ckpt_cost ~mtbf, 1)
  in
  { policy; target; period; since = 0 }

let policy t = t.policy

let target_interval t = match t.policy with Every_n _ -> infinity | _ -> t.target

let tick t = t.since <- t.since + 1
let reset t = t.since <- 0

let due t =
  match t.policy with
  | Every_n n -> t.since >= n
  | Interval s when s = infinity -> false
  | Interval _ | Daly -> t.target < infinity && t.since >= t.period

let record_checkpoint t ~iter_cost =
  t.since <- 0;
  match t.policy with
  | Every_n _ -> ()
  | Interval _ | Daly ->
      if t.target < infinity && iter_cost > 0.0 then
        t.period <- Int.max 1 (int_of_float (Float.round (t.target /. iter_cost)))

let period t = t.period
