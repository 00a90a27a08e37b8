module N = Simnet.Netmodel

let ceil_log2 p =
  let rec go k pow = if pow >= p then k else go (k + 1) (pow * 2) in
  if p <= 1 then 0 else go 0 1

let largest_pow2 p =
  let rec go pow = if pow * 2 <= p then go (pow * 2) else pow in
  if p < 1 then 1 else go 1

let fi = float_of_int

(* One uncongested message of [b] (float) bytes. *)
let msg prm b = N.startup_cost prm +. (b *. N.per_byte_cost prm)

(* Greedy factorization of [nodes] cells over [ndims] dimensions: prime
   factors, largest first, each to the currently smallest dimension;
   sorted largest first.  It is [Mpisim.Cart.dims_create]'s algorithm, so
   the hypergrid predictor and the runtime body agree on the grid shape. *)
let dims_create ~nodes ~ndims =
  let dims = Array.make ndims 1 in
  let rec factors n d acc =
    if n = 1 then acc
    else if n mod d = 0 then factors (n / d) d (d :: acc)
    else factors n (d + 1) acc
  in
  let fs = List.sort (fun a b -> compare b a) (factors nodes 2 []) in
  List.iter
    (fun f ->
      let smallest = ref 0 in
      Array.iteri (fun i d -> if d < dims.(!smallest) then smallest := i) dims;
      dims.(!smallest) <- dims.(!smallest) * f)
    fs;
  Array.sort (fun a b -> compare b a) dims;
  dims

let grid_dims p =
  if p <= 0 then (1, 1)
  else
    let dims = dims_create ~nodes:p ~ndims:2 in
    (dims.(0), dims.(1))

let bcast ?hier prm ~p ~bytes algo =
  let n = fi bytes in
  let rounds = ceil_log2 p in
  match (algo : Algo.bcast) with
  | Bcast_binomial -> fi rounds *. msg prm n
  | Bcast_scatter_allgather ->
      (* Binomial scatter moves (p-1)/p * n down the tree in log rounds of
         halving size; the ring allgather then does p-1 rounds of n/p. *)
      let frac = fi (p - 1) /. fi (max p 1) in
      (fi (rounds + p - 1) *. N.startup_cost prm) +. (2.0 *. frac *. n *. N.per_byte_cost prm)
  | Bcast_node_leader -> (
      (* Only meaningful on a multi-node group: binomial over the leaders
         at the spanning tier, then binomial within the fullest node. *)
      match hier with
      | None -> infinity
      | Some h ->
          (fi (ceil_log2 h.N.h_nodes) *. msg h.N.h_inter n)
          +. (fi (ceil_log2 h.N.h_max_per_node) *. msg h.N.h_intra n))

let allreduce ?hier prm ~p ~bytes ~elems ~op_cost algo =
  let n = fi bytes in
  let e = fi elems in
  let rounds = ceil_log2 p in
  let frac = fi (p - 1) /. fi (max p 1) in
  let pof2 = largest_pow2 p in
  (* Non-power-of-two fold/unfold: one extra full-size exchange each way. *)
  let fold = if p > pof2 then 2.0 *. msg prm n +. (e *. op_cost) else 0.0 in
  match (algo : Algo.allreduce) with
  | Ar_reduce_bcast -> fi (2 * rounds) *. msg prm n +. (fi rounds *. e *. op_cost)
  | Ar_recursive_doubling -> fold +. (fi (ceil_log2 pof2) *. (msg prm n +. (e *. op_cost)))
  | Ar_rabenseifner ->
      fold
      +. (fi (2 * ceil_log2 pof2) *. N.startup_cost prm)
      +. (2.0 *. frac *. n *. N.per_byte_cost prm)
      +. (frac *. e *. op_cost)
  | Ar_ring ->
      (fi (2 * (p - 1)) *. N.startup_cost prm)
      +. (2.0 *. frac *. n *. N.per_byte_cost prm)
      +. (frac *. e *. op_cost)
  | Ar_node_leader -> (
      match hier with
      | None -> infinity
      | Some h ->
          let intra_rounds = ceil_log2 h.N.h_max_per_node in
          (* Intra-node binomial reduce (combine each round), inter-leader
             recursive doubling (with non-power-of-two fold), intra-node
             binomial bcast of the result. *)
          let intra =
            (fi intra_rounds *. (msg h.N.h_intra n +. (e *. op_cost)))
            +. (fi intra_rounds *. msg h.N.h_intra n)
          in
          let npof2 = largest_pow2 h.N.h_nodes in
          let nfold =
            if h.N.h_nodes > npof2 then (2.0 *. msg h.N.h_inter n) +. (e *. op_cost) else 0.0
          in
          let inter =
            nfold +. (fi (ceil_log2 npof2) *. (msg h.N.h_inter n +. (e *. op_cost)))
          in
          intra +. inter)

let allgather prm ~p ~bytes algo =
  let n = fi bytes in
  match (algo : Algo.allgather) with
  | Ag_bruck ->
      (* Round sizes min(m, p-m) for m = 1, 2, 4, ... *)
      let cost = ref 0.0 in
      let m = ref 1 in
      while !m < p do
        let s = min !m (p - !m) in
        cost := !cost +. msg prm (fi s *. n);
        m := !m + s
      done;
      !cost
  | Ag_ring -> fi (p - 1) *. msg prm n
  | Ag_recursive_doubling ->
      let cost = ref 0.0 in
      let m = ref 1 in
      while !m < p do
        cost := !cost +. msg prm (fi !m *. n);
        m := !m * 2
      done;
      !cost

let allgatherv prm ~p ~max_bytes ~total_bytes algo =
  let largest = fi max_bytes and total = fi total_bytes in
  match (algo : Algo.allgatherv) with
  | Agv_ring -> fi (p - 1) *. msg prm largest
  | Agv_recursive_doubling ->
      (* Zero-byte messages are skipped.  Off powers of two, the fold sends
         one block and the unfold the whole vector, and a surviving rank
         holds up to two blocks, so the round with mask m carries at most
         2m of the largest. *)
      let send b = if b > 0.0 then msg prm b else 0.0 in
      let pof2 = largest_pow2 p in
      let folded = p > pof2 in
      let cost = ref (if folded then send largest +. send total else 0.0) in
      let held = if folded then 2.0 *. largest else largest in
      let mask = ref 1 in
      while !mask < pof2 do
        cost := !cost +. send (Float.min total (fi !mask *. held));
        mask := !mask * 2
      done;
      !cost

let alltoall ?hier prm ~p ~bytes algo =
  let n = fi bytes in
  match (algo : Algo.alltoall) with
  | A2a_pairwise ->
      (* All p-1 requests posted up front: startups serialize on the ports
         (the Omega(p) term) but only one wire latency is exposed. *)
      fi (p - 1)
      *. (prm.N.send_overhead +. prm.N.recv_overhead +. (n *. N.per_byte_cost prm))
      +. prm.N.latency
  | A2a_bruck ->
      (* ceil(log2 p) blocking rounds, each shipping the blocks whose index
         has the round's bit set (about p/2 of them). *)
      let cost = ref 0.0 in
      let pof = ref 1 in
      while !pof < p do
        let nsel = ref 0 in
        for i = 0 to p - 1 do
          if i land !pof <> 0 then incr nsel
        done;
        cost := !cost +. msg prm (fi !nsel *. n);
        pof := !pof * 2
      done;
      !cost
  | A2a_smp -> (
      match hier with
      | None -> infinity
      | Some h ->
          (* Leaders are the bottleneck: gather remote-destined blocks from
             node peers, pairwise-exchange node-to-node bundles, scatter
             arrivals; plus the direct intra-node exchange. *)
          let mpn = fi h.N.h_max_per_node and nodes = fi h.N.h_nodes in
          let remote_per_rank = (nodes -. 1.0) *. mpn *. n in
          let bundle = mpn *. mpn *. n in
          ((mpn -. 1.0) *. msg h.N.h_intra remote_per_rank)
          +. ((nodes -. 1.0) *. msg h.N.h_inter bundle)
          +. ((mpn -. 1.0) *. msg h.N.h_intra remote_per_rank)
          +. ((mpn -. 1.0) *. msg h.N.h_intra n))
  | A2a_hypergrid -> (
      (* Two coordinate-fixing phases over a near-square grid: (cols-1)
         bundles of rows blocks, then (rows-1) bundles of cols blocks, plus
         a full repack of the local buffer between phases.  Only a
         candidate on hierarchical fabrics, where cutting the Omega(p)
         startup term to O(sqrt p) pays for the extra volume. *)
      match hier with
      | None -> infinity
      | Some _ ->
          (* Like pairwise, each phase posts all its requests up front, so
             per-bundle startups serialize on the injection port while only
             one wire latency is exposed. *)
          let rows, cols = grid_dims p in
          let inj b = prm.N.send_overhead +. (b *. prm.N.injection_byte_time) in
          let phase dim bundle =
            if dim <= 1 then 0.0
            else msg prm bundle +. (fi (Int.max 0 (dim - 2)) *. inj bundle)
          in
          phase cols (fi rows *. n) +. phase rows (fi cols *. n))
