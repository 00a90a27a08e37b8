(* Rank -> node and node -> rack placement maps.

   These are plain [int array]s so they can be handed straight to
   {!Simnet.Netmodel.fabric}.  Block placement belongs to the standard
   builders ([Netmodel.two_tier]/[fat_tree]); the layouts here are the
   others.  [Netmodel.validate_fabric] checks a finished fabric. *)

let round_robin ~ranks ~nodes =
  if ranks <= 0 then invalid_arg "Place.round_robin: ranks must be positive";
  if nodes <= 0 then invalid_arg "Place.round_robin: nodes must be positive";
  Array.init ranks (fun r -> r mod nodes)

(* Number of distinct nodes named by a placement.  Maps are dense (checked
   by [Netmodel.validate_fabric]), so this is [max + 1]. *)
let node_count node_of =
  if Array.length node_of = 0 then 0
  else 1 + Array.fold_left Int.max 0 node_of

let populations node_of =
  let nodes = node_count node_of in
  let pop = Array.make nodes 0 in
  Array.iter (fun n -> pop.(n) <- pop.(n) + 1) node_of;
  pop

(* Deterministic "scattered" placement: ranks are dealt to nodes through a
   fixed multiplicative permutation, modelling a fragmented batch
   allocation where consecutive ranks rarely share a node (the adversarial
   case for topology-blind collectives).  Balanced by construction, which
   needs [node_size] to divide [ranks]. *)
let scattered ~ranks ~node_size =
  if ranks <= 0 then invalid_arg "Place.scattered: ranks must be positive";
  if node_size <= 0 || ranks mod node_size <> 0 then
    invalid_arg "Place.scattered: node_size must divide ranks";
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let mu = ref (Int.max 1 (ranks * 2 / 5)) in
  while gcd !mu ranks <> 1 do
    incr mu
  done;
  Array.init ranks (fun r -> !mu * r mod ranks / node_size)
