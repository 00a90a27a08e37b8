type params = {
  latency : float;
  byte_time : float;
  injection_byte_time : float;
  send_overhead : float;
  recv_overhead : float;
  memcpy_byte_time : float;
  setup_overhead : float;
}

let default =
  {
    latency = 2.0e-6;
    byte_time = 8.0e-11 (* 12.5 GB/s *);
    injection_byte_time = 8.0e-11;
    send_overhead = 0.5e-6;
    recv_overhead = 0.5e-6;
    memcpy_byte_time = 1.0e-10;
    setup_overhead = 0.0;
  }

let low_latency = { default with latency = 0.5e-6; send_overhead = 0.2e-6; recv_overhead = 0.2e-6 }

let intra_node =
  {
    latency = 0.3e-6;
    byte_time = 2.5e-11 (* 40 GB/s shared memory *);
    injection_byte_time = 2.5e-11;
    send_overhead = 0.2e-6;
    recv_overhead = 0.2e-6;
    memcpy_byte_time = 1.0e-10;
    setup_overhead = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* The fabric: the one shape of every network model.                  *)
(* ------------------------------------------------------------------ *)

type fabric = {
  f_node_of : int array;
  f_rack_of : int array;
  f_node : params;
  f_rack : params;
  f_core : params;
  f_uplinks : int;
}

let validate_fabric f =
  if Array.length f.f_node_of = 0 then invalid_arg "Netmodel: fabric places no rank";
  let nodes = Array.length f.f_rack_of in
  if nodes = 0 then invalid_arg "Netmodel: fabric has no nodes";
  Array.iter
    (fun n -> if n < 0 || n >= nodes then invalid_arg "Netmodel: fabric node id out of range")
    f.f_node_of;
  Array.iter (fun r -> if r < 0 then invalid_arg "Netmodel: fabric rack id negative") f.f_rack_of;
  if f.f_uplinks < 0 then invalid_arg "Netmodel: fabric uplink count negative";
  (* an empty node would silently skew the uplink table and the
     population profile *)
  let seen = Array.make nodes false in
  Array.iter (fun n -> seen.(n) <- true) f.f_node_of;
  Array.iteri
    (fun n occupied ->
      if not occupied then invalid_arg (Printf.sprintf "Netmodel: fabric node %d hosts no rank" n))
    seen

(* Block placement (rank [r] on node [r / node_size]), the layout of both
   standard builders. *)
let block_fabric ~node_size ~ranks ~rack_of_node ~node ~rack ~core ~uplinks =
  if node_size <= 0 then invalid_arg "Netmodel: node_size must be positive";
  let nodes = (ranks + node_size - 1) / node_size in
  let f =
    {
      f_node_of = Array.init ranks (fun r -> r / node_size);
      f_rack_of = Array.init nodes rack_of_node;
      f_node = node;
      f_rack = rack;
      f_core = core;
      f_uplinks = uplinks;
    }
  in
  validate_fabric f;
  f

(* one rack: the rack tier collapses onto the inter-node parameters *)
let two_tier ?(uplinks = 0) ~node_size ~ranks () =
  block_fabric ~node_size ~ranks ~rack_of_node:(fun _ -> 0) ~node:intra_node ~rack:default
    ~core:default ~uplinks

let fat_tree ?(uplinks = 0) ~node_size ~nodes_per_rack ~ranks () =
  if nodes_per_rack <= 0 then invalid_arg "Netmodel: nodes_per_rack must be positive";
  block_fabric ~node_size ~ranks
    ~rack_of_node:(fun n -> n / nodes_per_rack)
    ~node:intra_node ~rack:low_latency ~core:default ~uplinks

type t = {
  f : fabric;
  uplink_free : float array array;  (* node -> uplink port -> busy-until *)
  egress_free : float array;
  ingress_free : float array;
}

let create_fabric f ~ranks =
  validate_fabric f;
  if Array.length f.f_node_of <> ranks then
    invalid_arg "Netmodel: fabric node map length differs from rank count";
  let nodes = Array.length f.f_rack_of in
  {
    f;
    uplink_free =
      (if f.f_uplinks = 0 then [||] else Array.init nodes (fun _ -> Array.make f.f_uplinks 0.0));
    egress_free = Array.make ranks 0.0;
    ingress_free = Array.make ranks 0.0;
  }

(* The flat model: one rank per node, one rack, [p] on every tier. *)
let create p ~ranks =
  if ranks <= 0 then invalid_arg "Netmodel.create: ranks must be positive";
  create_fabric
    {
      f_node_of = Array.init ranks Fun.id;
      f_rack_of = Array.make ranks 0;
      f_node = p;
      f_rack = p;
      f_core = p;
      f_uplinks = 0;
    }
    ~ranks

let params t = t.f.f_core
let node_of t r = t.f.f_node_of.(r)
let rack_of_rank t r = t.f.f_rack_of.(t.f.f_node_of.(r))

let fabric_params f ~src_node ~dst_node =
  if src_node = dst_node then f.f_node
  else if f.f_rack_of.(src_node) = f.f_rack_of.(dst_node) then f.f_rack
  else f.f_core

let params_between t ~src ~dst =
  fabric_params t.f ~src_node:t.f.f_node_of.(src) ~dst_node:t.f.f_node_of.(dst)

(* ------------------------------------------------------------------ *)
(* Cost-prediction helpers (LogGP terms) for the collective-algorithm  *)
(* selection layer.  These mirror [transfer] exactly: a single         *)
(* uncongested message costs                                           *)
(*   send_overhead + b*injection + latency + b*byte_time + recv_ovh.   *)
(* ------------------------------------------------------------------ *)

let startup_cost p = p.send_overhead +. p.latency +. p.recv_overhead
let per_byte_cost p = p.injection_byte_time +. p.byte_time
let msg_cost p ~bytes = startup_cost p +. (float_of_int bytes *. per_byte_cost p)

let params_for_group t group =
  let f = t.f in
  if Array.length group = 0 then f.f_core
  else begin
    let node0 = f.f_node_of.(group.(0)) in
    if Array.for_all (fun g -> f.f_node_of.(g) = node0) group then f.f_node
    else begin
      let rack0 = f.f_rack_of.(node0) in
      if Array.for_all (fun g -> f.f_rack_of.(f.f_node_of.(g)) = rack0) group then f.f_rack
      else f.f_core
    end
  end

(* ------------------------------------------------------------------ *)
(* Topology-aware group profile: what a collective spanning nodes      *)
(* should plan with instead of the single pessimistic parameter set.   *)
(* ------------------------------------------------------------------ *)

type hier_profile = {
  h_intra : params;
  h_inter : params;
  h_nodes : int;
  h_max_per_node : int;
}

(* A profile exists only where there is a hierarchy to exploit: a group
   on one node plans exactly with [params_for_group], and a group with one
   rank per node (a flat model's, say) has no intra-node phase. *)
let hier_for_group t group =
  let f = t.f in
  (* Count distinct nodes and the heaviest node's population. *)
  let pop = Array.make (Array.length f.f_rack_of) 0 in
  let nodes = ref 0 and mpn = ref 0 in
  Array.iter
    (fun g ->
      let nd = f.f_node_of.(g) in
      if pop.(nd) = 0 then incr nodes;
      pop.(nd) <- pop.(nd) + 1;
      mpn := Int.max !mpn pop.(nd))
    group;
  if !nodes <= 1 || !mpn <= 1 then None
  else
    Some
      {
        h_intra = f.f_node;
        h_inter = params_for_group t group;
        h_nodes = !nodes;
        h_max_per_node = !mpn;
      }

(* Earliest-free uplink port of [node]; deterministic argmin (first of the
   equally free ports wins). *)
let pick_uplink ports =
  let best = ref 0 in
  for i = 1 to Array.length ports - 1 do
    if ports.(i) < ports.(!best) then best := i
  done;
  !best

let transfer t ~now ~src ~dst ~bytes ~pack_factor =
  let f = t.f in
  let src_node = f.f_node_of.(src) and dst_node = f.f_node_of.(dst) in
  let p = fabric_params f ~src_node ~dst_node in
  let fbytes = float_of_int bytes *. pack_factor in
  if src = dst then begin
    (* Local delivery: a single memcpy, no port involvement. *)
    let done_at = now +. p.send_overhead +. (fbytes *. p.memcpy_byte_time) in
    (done_at, done_at)
  end
  else begin
    (* Inter-node messages on a fabric with a finite uplink count also
       serialize on the source node's shared uplink ports (the fat-tree
       oversubscription effect); intra-node traffic never touches them. *)
    let uplink =
      if f.f_uplinks > 0 && src_node <> dst_node then begin
        let ports = t.uplink_free.(src_node) in
        Some (ports, pick_uplink ports)
      end
      else None
    in
    let start = Float.max now t.egress_free.(src) in
    let start =
      match uplink with Some (ports, i) -> Float.max start ports.(i) | None -> start
    in
    let injected = start +. p.send_overhead +. (fbytes *. p.injection_byte_time) in
    t.egress_free.(src) <- injected;
    (match uplink with Some (ports, i) -> ports.(i) <- injected | None -> ());
    let wire_arrival = injected +. p.latency +. (fbytes *. p.byte_time) in
    let drain_start = Float.max wire_arrival t.ingress_free.(dst) in
    let available = drain_start +. p.recv_overhead in
    t.ingress_free.(dst) <- available;
    (injected, available)
  end

(* ------------------------------------------------------------------ *)
(* Environment spec parser (MPISIM_TOPOLOGY).                          *)
(* ------------------------------------------------------------------ *)

(* Specs:
     "two:<node_size>"                        two-tier, default params
     "fat:<node_size>:<nodes_per_rack>[:<uplinks>]"
                                              three-tier fat tree
   built by [two_tier]/[fat_tree] with their default parameters.  Unknown
   specs raise [Invalid_argument] so a typo in the environment fails
   loudly. *)
let fabric_of_spec ~ranks spec =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "Netmodel.fabric_of_spec: bad spec %S (expected two:<node_size> or \
          fat:<node_size>:<nodes_per_rack>[:<uplinks>])"
         spec)
  in
  let int_of s = match int_of_string_opt (String.trim s) with Some i when i > 0 -> i | _ -> fail () in
  match String.split_on_char ':' spec with
  | [ "two"; ns ] -> two_tier ~node_size:(int_of ns) ~ranks ()
  | "fat" :: ns :: npr :: rest ->
      let node_size = int_of ns and nodes_per_rack = int_of npr in
      let uplinks = match rest with [] -> 0 | [ u ] -> int_of u | _ -> fail () in
      fat_tree ~uplinks ~node_size ~nodes_per_rack ~ranks ()
  | _ -> fail ()
