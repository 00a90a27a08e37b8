type entry = Fixed of string | Table of (int * string) list

type t = { pins : (int * string, entry) Hashtbl.t }

let create () = { pins = Hashtbl.create 8 }

let known_colls = [ "bcast"; "allreduce"; "allgather"; "allgatherv"; "alltoall" ]

let validate ~coll ~algo =
  let ok =
    match coll with
    | "bcast" -> Option.is_some (Algo.bcast_of_name algo)
    | "allreduce" -> Option.is_some (Algo.allreduce_of_name algo)
    | "allgather" -> Option.is_some (Algo.allgather_of_name algo)
    | "allgatherv" -> Option.is_some (Algo.allgatherv_of_name algo)
    | "alltoall" -> Option.is_some (Algo.alltoall_of_name algo)
    | _ ->
        invalid_arg
          (Printf.sprintf "Coll_algos.Select.pin: unknown collective %S (expected one of %s)" coll
             (String.concat ", " known_colls))
  in
  if not ok then
    invalid_arg (Printf.sprintf "Coll_algos.Select.pin: unknown %s algorithm %S" coll algo)

let pin t ~cid ~coll ~algo =
  validate ~coll ~algo;
  Hashtbl.replace t.pins (cid, coll) (Fixed algo)

let pin_table t ~cid ~coll table =
  if table = [] then invalid_arg "Coll_algos.Select.pin_table: empty table";
  List.iter
    (fun (minb, algo) ->
      if minb < 0 then invalid_arg "Coll_algos.Select.pin_table: negative size threshold";
      validate ~coll ~algo)
    table;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) table in
  Hashtbl.replace t.pins (cid, coll) (Table sorted)

let unpin t ~cid ~coll = Hashtbl.remove t.pins (cid, coll)

let pinned t ~cid ~coll =
  match Hashtbl.find_opt t.pins (cid, coll) with
  | Some (Fixed name) -> Some name
  | Some (Table _) | None -> None

let pinned_table t ~cid ~coll =
  match Hashtbl.find_opt t.pins (cid, coll) with
  | Some (Table rows) -> Some rows
  | Some (Fixed _) | None -> None

(* The algorithm a pin entry names for a payload of [bytes]: a [Fixed] pin
   unconditionally, a [Table] pin through its last threshold <= bytes (no
   row matching means no override). *)
let entry_algo entry ~bytes =
  match entry with
  | Fixed name -> Some name
  | Table rows ->
      List.fold_left (fun acc (minb, algo) -> if bytes >= minb then Some algo else acc) None rows

(* Argmin with strict improvement: candidates are listed incumbent-first,
   so predicted-cost ties reproduce the pre-subsystem behavior. *)
let argmin cost = function
  | [] -> invalid_arg "Coll_algos.Select: no feasible candidate"
  | first :: rest ->
      let best = ref first and best_cost = ref (cost first) in
      List.iter
        (fun a ->
          let c = cost a in
          if c < !best_cost then begin
            best := a;
            best_cost := c
          end)
        rest;
      !best

let choose t ~cid ~coll ~bytes ~of_name ~feasible ~cost candidates =
  let feasible_candidates = List.filter feasible candidates in
  let cost_based () = argmin cost feasible_candidates in
  match Hashtbl.find_opt t.pins (cid, coll) with
  | None -> cost_based ()
  | Some entry -> (
      match entry_algo entry ~bytes with
      | None -> cost_based ()
      | Some name -> (
          match of_name name with
          | Some a when feasible a -> a
          | Some _ | None -> cost_based ()))

let bcast ?hier t ~cid prm ~p ~bytes =
  choose t ~cid ~coll:"bcast" ~bytes ~of_name:Algo.bcast_of_name
    ~feasible:(fun _ -> true)
    ~cost:(fun a -> Cost.bcast ?hier prm ~p ~bytes a)
    Algo.all_bcast

let is_pow2 p = p > 0 && p land (p - 1) = 0

let allreduce ?hier t ~cid prm ~p ~bytes ~elems ~op_cost ~commutative =
  choose t ~cid ~coll:"allreduce" ~bytes ~of_name:Algo.allreduce_of_name
    ~feasible:(fun a ->
      (* Reassociating-and-commuting schedules are reserved for commutative
         operations; the binomial reduce+bcast path is today's behavior for
         the rest. *)
      commutative || a = Algo.Ar_reduce_bcast)
    ~cost:(fun a -> Cost.allreduce ?hier prm ~p ~bytes ~elems ~op_cost a)
    Algo.all_allreduce

let allgather t ~cid prm ~p ~bytes =
  choose t ~cid ~coll:"allgather" ~bytes ~of_name:Algo.allgather_of_name
    ~feasible:(fun a -> a <> Algo.Ag_recursive_doubling || is_pow2 p)
    ~cost:(fun a -> Cost.allgather prm ~p ~bytes a)
    Algo.all_allgather

let allgatherv t ~cid prm ~p ~max_bytes ~total_bytes =
  choose t ~cid ~coll:"allgatherv" ~bytes:total_bytes ~of_name:Algo.allgatherv_of_name
    ~feasible:(fun _ -> true)
    ~cost:(fun a -> Cost.allgatherv prm ~p ~max_bytes ~total_bytes a)
    Algo.all_allgatherv

let alltoall ?hier t ~cid prm ~p ~bytes =
  choose t ~cid ~coll:"alltoall" ~bytes ~of_name:Algo.alltoall_of_name
    ~feasible:(fun _ -> true)
    ~cost:(fun a -> Cost.alltoall ?hier prm ~p ~bytes a)
    Algo.all_alltoall
