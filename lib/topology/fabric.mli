(** Builders for tiered fabric descriptions.

    A fabric ({!Simnet.Netmodel.fabric}) is the simulator-facing record:
    rank→node→rack placement plus per-tier LogGP parameters and the shared
    uplink port count.  This module constructs the common shapes with
    validated placements; pass the result to [Mpisim.Mpi.run ~fabric] (or
    export an equivalent [MPISIM_TOPOLOGY] spec, see
    {!Simnet.Netmodel.fabric_of_spec}). *)

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

(** The standard shapes, {!Simnet.Netmodel.two_tier} and
    {!Simnet.Netmodel.fat_tree}: the builders [MPISIM_TOPOLOGY] specs go
    through too. *)
val two_tier :
  ?intra:Simnet.Netmodel.params ->
  ?inter:Simnet.Netmodel.params ->
  ?uplinks:int ->
  node_size:int ->
  ranks:int ->
  unit ->
  t

val fat_tree :
  ?intra:Simnet.Netmodel.params ->
  ?rack:Simnet.Netmodel.params ->
  ?core:Simnet.Netmodel.params ->
  ?uplinks:int ->
  node_size:int ->
  nodes_per_rack:int ->
  ranks:int ->
  unit ->
  t

val ranks : t -> int
val nodes : t -> int
val racks : t -> int

(** [max_per_node f] is the population of the fullest node. *)
val max_per_node : t -> int

(** [describe f] is a one-line human-readable shape summary. *)
val describe : t -> string
