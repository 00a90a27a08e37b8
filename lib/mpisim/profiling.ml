type t = {
  table : (string, int ref) Hashtbl.t;
  algo_table : (string, int ref) Hashtbl.t;
  mutable msg_count : int;
  mutable byte_count : int;
}

type snapshot = {
  calls : (string * int) list;
  algo_calls : (string * int) list;
  messages : int;
  bytes : int;
}

let create () =
  { table = Hashtbl.create 32; algo_table = Hashtbl.create 32; msg_count = 0; byte_count = 0 }

let bump table name =
  match Hashtbl.find_opt table name with
  | Some r -> incr r
  | None -> Hashtbl.add table name (ref 1)

let record_call t name = bump t.table name
let record_algo t name = bump t.algo_table name

let record_message t ~bytes =
  t.msg_count <- t.msg_count + 1;
  t.byte_count <- t.byte_count + bytes

let sorted_counts table =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t =
  {
    calls = sorted_counts t.table;
    algo_calls = sorted_counts t.algo_table;
    messages = t.msg_count;
    bytes = t.byte_count;
  }

let reset t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.algo_table;
  t.msg_count <- 0;
  t.byte_count <- 0

let count_of name counts = match List.assoc_opt name counts with Some n -> n | None -> 0

(* Annotated names like "MPI_Allreduce[rabenseifner]" live in the algorithm
   category so the plain-call table keeps its historical meaning. *)
let calls_of name s =
  match List.assoc_opt name s.calls with
  | Some n -> n
  | None -> count_of name s.algo_calls

let algo_calls_of name s = count_of name s.algo_calls

let diff_counts before after =
  let names = List.sort_uniq String.compare (List.map fst before @ List.map fst after) in
  List.filter_map
    (fun name ->
      let d = count_of name after - count_of name before in
      if d = 0 then None else Some (name, d))
    names

let diff ~before ~after =
  {
    calls = diff_counts before.calls after.calls;
    algo_calls = diff_counts before.algo_calls after.algo_calls;
    messages = after.messages - before.messages;
    bytes = after.bytes - before.bytes;
  }
