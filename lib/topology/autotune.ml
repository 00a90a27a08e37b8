module N = Simnet.Netmodel
module A = Coll_algos.Algo
module C = Coll_algos.Cost
module S = Coll_algos.Select

type table = (int * string) list

type plan = {
  t_p : int;
  t_sizes : int list;
  t_bcast : table;
  t_allreduce : table;
  t_alltoall : table;
}

(* Eight geometric sweep points, 8 B .. 16 MiB: wide enough to bracket
   every latency/bandwidth crossover of the default parameters, coarse
   enough that a full sweep stays cheap. *)
let default_sizes = List.init 8 (fun i -> 8 lsl (3 * i))

(* Reductions are priced on 8-byte elements and tuned for commutative
   operators at the built-in operators' cost per combined element. *)
let elem_size = 8
let op_cost = Mpisim.Op.(cost_per_element int_sum)

(* Candidate predictions, in catalogue (incumbent-first) order. *)

let predict_bcast ?hier prm ~p ~bytes =
  List.map (fun a -> (A.bcast_name a, C.bcast ?hier prm ~p ~bytes a)) A.all_bcast

let predict_allreduce ?hier prm ~p ~bytes =
  let elems = bytes / elem_size in
  List.map
    (fun a -> (A.allreduce_name a, C.allreduce ?hier prm ~p ~bytes ~elems ~op_cost a))
    A.all_allreduce

let predict_alltoall ?hier prm ~p ~bytes =
  List.map (fun a -> (A.alltoall_name a, C.alltoall ?hier prm ~p ~bytes a)) A.all_alltoall

(* Fold a per-size winner sequence into a threshold table: one row per
   algorithm change, the first anchored at 0 so the table is total (pins
   below the smallest sweep size behave like the smallest). *)
let compress rows =
  let rec go acc prev = function
    | [] -> List.rev acc
    | (bytes, algo) :: rest ->
        if prev = Some algo then go acc prev rest
        else
          let threshold = if acc = [] then 0 else bytes in
          go ((threshold, algo) :: acc) (Some algo) rest
  in
  go [] None rows

let crossovers table = List.tl (List.map fst table)

(* The sweep reuses the runtime's own argmin (a pinless [Select.t]), so a
   generated table can never disagree with what cost-based selection would
   have picked at a sweep point. *)
let tune_profile ?(sizes = default_sizes) ?hier prm ~p =
  let sizes = List.sort_uniq compare sizes in
  if sizes = [] then invalid_arg "Autotune: empty size sweep";
  if p <= 0 then invalid_arg "Autotune: communicator size must be positive";
  let sel = S.create () in
  let sweep pick = compress (List.map (fun bytes -> (bytes, pick ~bytes)) sizes) in
  let bcast =
    sweep (fun ~bytes -> A.bcast_name (S.bcast ?hier sel ~cid:0 prm ~p ~bytes))
  in
  let allreduce =
    sweep (fun ~bytes ->
        let elems = bytes / elem_size in
        A.allreduce_name
          (S.allreduce ?hier sel ~cid:0 prm ~p ~bytes ~elems ~op_cost
             ~commutative:true))
  in
  let alltoall =
    sweep (fun ~bytes -> A.alltoall_name (S.alltoall ?hier sel ~cid:0 prm ~p ~bytes))
  in
  { t_p = p; t_sizes = sizes; t_bcast = bcast; t_allreduce = allreduce; t_alltoall = alltoall }

let tune ?sizes fabric ~p =
  let ranks = Fabric.ranks fabric in
  if p > ranks then invalid_arg "Autotune.tune: communicator larger than fabric";
  let net = N.create_fabric fabric ~ranks in
  let group = Array.init p Fun.id in
  let prm = N.params_for_group net group in
  let hier = N.hier_for_group net group in
  tune_profile ?sizes ?hier prm ~p

let tune_for_comm comm =
  let s = Mpisim.Comm.shared comm in
  tune_profile ?hier:s.Mpisim.World.hier
    s.Mpisim.World.net_params ~p:(Array.length s.Mpisim.World.group)

let install plan comm =
  Mpisim.Collectives.pin_table_algorithm comm ~coll:"bcast" plan.t_bcast;
  Mpisim.Collectives.pin_table_algorithm comm ~coll:"allreduce" plan.t_allreduce;
  Mpisim.Collectives.pin_table_algorithm comm ~coll:"alltoall" plan.t_alltoall

let table_to_string table =
  String.concat ", "
    (List.map (fun (threshold, algo) -> Printf.sprintf "%d:%s" threshold algo) table)

let to_string plan =
  Printf.sprintf "p=%d bcast=[%s] allreduce=[%s] alltoall=[%s]" plan.t_p
    (table_to_string plan.t_bcast)
    (table_to_string plan.t_allreduce)
    (table_to_string plan.t_alltoall)
