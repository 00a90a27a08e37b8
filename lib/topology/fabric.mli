(** Builders for tiered fabric descriptions.

    A fabric ({!Simnet.Netmodel.fabric}) is the simulator-facing record:
    rank→node→rack placement plus per-tier LogGP parameters and the shared
    uplink port count.  The standard block-placed shapes are
    {!Simnet.Netmodel.two_tier} and {!Simnet.Netmodel.fat_tree}, the
    builders [MPISIM_TOPOLOGY] specs go through
    ({!Simnet.Netmodel.fabric_of_spec}); this module assembles any other
    placement with validation and describes a fabric's shape.  Pass the
    result to [Mpisim.Mpi.run ~fabric]. *)

type t = Simnet.Netmodel.fabric

(** [make ~node_of ~rack_of ~node ~rack ~core ()] assembles a fabric from
    explicit placement maps (copied defensively) and per-tier parameters.
    @param uplinks shared uplink ports per node (default [0]: uncongested)
    @raise Invalid_argument if the result fails
    {!Simnet.Netmodel.validate_fabric}. *)
val make :
  ?uplinks:int ->
  node_of:int array ->
  rack_of:int array ->
  node:Simnet.Netmodel.params ->
  rack:Simnet.Netmodel.params ->
  core:Simnet.Netmodel.params ->
  unit ->
  t

val ranks : t -> int
val nodes : t -> int
val racks : t -> int

(** [max_per_node f] is the population of the fullest node. *)
val max_per_node : t -> int

(** [describe f] is a one-line human-readable shape summary. *)
val describe : t -> string
