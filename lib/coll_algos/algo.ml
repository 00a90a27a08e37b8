type bcast = Bcast_binomial | Bcast_scatter_allgather | Bcast_node_leader

type allreduce =
  | Ar_reduce_bcast
  | Ar_recursive_doubling
  | Ar_rabenseifner
  | Ar_ring
  | Ar_node_leader

type allgather = Ag_bruck | Ag_ring | Ag_recursive_doubling
type allgatherv = Agv_ring | Agv_recursive_doubling

type alltoall = A2a_pairwise | A2a_bruck | A2a_smp | A2a_hypergrid

let bcast_name = function
  | Bcast_binomial -> "binomial"
  | Bcast_scatter_allgather -> "scatter_allgather"
  | Bcast_node_leader -> "node_leader"

let allreduce_name = function
  | Ar_reduce_bcast -> "reduce_bcast"
  | Ar_recursive_doubling -> "recursive_doubling"
  | Ar_rabenseifner -> "rabenseifner"
  | Ar_ring -> "ring"
  | Ar_node_leader -> "node_leader"

let allgather_name = function
  | Ag_bruck -> "bruck"
  | Ag_ring -> "ring"
  | Ag_recursive_doubling -> "recursive_doubling"

let allgatherv_name = function
  | Agv_ring -> "ring"
  | Agv_recursive_doubling -> "recursive_doubling"

let alltoall_name = function
  | A2a_pairwise -> "pairwise"
  | A2a_bruck -> "bruck"
  | A2a_smp -> "smp"
  | A2a_hypergrid -> "hypergrid"

(* Incumbents first: the selection engine breaks cost ties in list order. *)
let all_bcast = [ Bcast_binomial; Bcast_scatter_allgather; Bcast_node_leader ]

let all_allreduce =
  [ Ar_reduce_bcast; Ar_recursive_doubling; Ar_rabenseifner; Ar_ring; Ar_node_leader ]

let all_allgather = [ Ag_bruck; Ag_ring; Ag_recursive_doubling ]
let all_allgatherv = [ Agv_ring; Agv_recursive_doubling ]
let all_alltoall = [ A2a_pairwise; A2a_bruck; A2a_smp; A2a_hypergrid ]

let of_name all name s = List.find_opt (fun a -> String.equal (name a) s) all

let bcast_of_name s = of_name all_bcast bcast_name s
let allreduce_of_name s = of_name all_allreduce allreduce_name s
let allgather_of_name s = of_name all_allgather allgather_name s
let allgatherv_of_name s = of_name all_allgatherv allgatherv_name s
let alltoall_of_name s = of_name all_alltoall alltoall_name s
