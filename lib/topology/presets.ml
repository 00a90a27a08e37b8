(* Ranks per node on the OmniPath-class machine the default parameters
   model (dual-socket 24-core nodes). *)
let omnipath_node_size = 48

let omnipath ~ranks = Simnet.Netmodel.two_tier ~node_size:omnipath_node_size ~ranks ()

let omnipath_scattered ~ranks =
  let node_of = Place.scattered ~ranks ~node_size:omnipath_node_size in
  let nodes = Place.node_count node_of in
  Fabric.make ~node_of
    ~rack_of:(Array.make nodes 0)
    ~node:Simnet.Netmodel.intra_node ~rack:Simnet.Netmodel.default
    ~core:Simnet.Netmodel.default ()

let smp_quad ~ranks = Simnet.Netmodel.two_tier ~node_size:4 ~ranks ()

let fat_tree_demo ~ranks =
  (* four 8-rank nodes per rack, 2 shared uplinks per node: small enough
     to sweep in tests, congested enough to make the uplink model visible *)
  Simnet.Netmodel.fat_tree ~node_size:8 ~nodes_per_rack:4 ~uplinks:2 ~ranks ()

let all =
  [
    ("omnipath", omnipath);
    ("smp_quad", smp_quad);
    ("fat_tree_demo", fat_tree_demo);
  ]

let find name = List.assoc_opt name all
