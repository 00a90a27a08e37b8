(** Named fabric presets used by the benches and the test suite.

    Each preset is a function of the world size so one name covers every
    sweep point. *)

(** Ranks per node modelled for the OmniPath-class machine behind
    {!Simnet.Netmodel.default} (dual-socket 24-core nodes): [48]. *)
val omnipath_node_size : int

(** [omnipath_scattered ~ranks] — the same machine under a fragmented
    batch allocation ({!Place.scattered}): consecutive ranks rarely share
    a node, so topology-blind collectives pay inter-node costs on almost
    every edge.  Requires [ranks] to be a multiple of 48. *)
val omnipath_scattered : ranks:int -> Fabric.t

(** All presets by name:
    - ["omnipath"]: two-tier cluster, 48 shared-memory ranks per node
      under the default inter-node fabric (the paper-machine shape the
      acceptance bench tunes on);
    - ["smp_quad"]: two-tier cluster of 4-rank nodes (small enough for
      exhaustive differential tests);
    - ["fat_tree_demo"]: three-tier fat tree, 8-rank nodes, 4 nodes per
      rack, 2 shared uplinks per node (exercises rack routing and uplink
      congestion). *)
val all : (string * (ranks:int -> Fabric.t)) list

val find : string -> (ranks:int -> Fabric.t) option
