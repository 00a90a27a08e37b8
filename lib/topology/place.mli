(** Rank placement maps for tiered fabrics.

    A placement is two dense arrays: [node_of] maps world rank to node id,
    [rack_of] maps node id to rack id — the exact representation
    {!Simnet.Netmodel.fabric} consumes.  Block placement (the MPI
    default) comes with the standard builders {!Simnet.Netmodel.two_tier}
    and {!Simnet.Netmodel.fat_tree}; the layouts here are the others, and
    anything else is an ordinary [int array]. *)

(** [round_robin ~ranks ~nodes] deals ranks across nodes cyclically:
    rank [r] lives on node [r mod nodes] (the [--map-by node] layout that
    defeats naive node-locality assumptions — useful in tests). *)
val round_robin : ranks:int -> nodes:int -> int array

(** [scattered ~ranks ~node_size] deals ranks to nodes through a fixed
    multiplicative permutation — a deterministic model of a fragmented
    batch allocation where consecutive ranks rarely share a node, the
    adversarial placement for topology-blind collectives.  Balanced by
    construction.
    @raise Invalid_argument unless [node_size] divides [ranks]. *)
val scattered : ranks:int -> node_size:int -> int array

(** [node_count node_of] is the number of distinct nodes of a dense map. *)
val node_count : int array -> int

(** [populations node_of] is the per-node rank count, indexed by node id. *)
val populations : int array -> int array
