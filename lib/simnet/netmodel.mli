(** Single-port LogGP-style network cost model.

    A message of [bytes] from [src] to [dst] experiences:
    - sender-side injection: the sender's egress port is occupied for
      [send_overhead + bytes * injection_byte_time]; messages from one rank
      serialize on its port (the effect that makes one-sided fan-out
      expensive and motivates the paper's grid all-to-all);
    - wire time: [latency + bytes * byte_time];
    - receiver-side drain: the receiver's ingress port is occupied for
      [recv_overhead + bytes * injection_byte_time].

    Self-messages only pay a memory-copy cost.  Non-contiguous datatypes pay
    a pack/unpack multiplier supplied by the caller (see
    {!Mpisim.Datatype.pack_factor}). *)

type params = {
  latency : float;  (** wire latency per message, seconds *)
  byte_time : float;  (** wire time per byte, seconds *)
  injection_byte_time : float;  (** port occupancy per byte, seconds *)
  send_overhead : float;  (** fixed CPU cost to post a send *)
  recv_overhead : float;  (** fixed CPU cost to complete a receive *)
  memcpy_byte_time : float;  (** local copy cost per byte (self messages) *)
  setup_overhead : float;
      (** per-operation software initiation cost (argument validation,
          datatype resolution, matching setup) charged to the calling rank
          on every {e ephemeral} user-level p2p call.  Persistent
          operations pay it once at [*_init] and never again on [start] —
          this is the cost matching-once amortizes (MPI-4 persistent
          communication).  Default [0.0]: the incumbent model is
          unchanged. *)
}

(** Parameters loosely modelled after a 100 Gbit/s OmniPath-class fabric:
    2 us latency, 12.5 GB/s wire bandwidth, 0.5 us send/recv overhead. *)
val default : params

(** A sharper network (lower latency) to explore crossovers. *)
val low_latency : params

(** Shared-memory-class parameters for communication within a node. *)
val intra_node : params

(** {1 Fabrics}

    Every network model is a three-tier topology (node / rack / core) with
    an explicit rank→node→rack placement map and optional shared uplink
    ports per node.  A flat network is the special case of one rank per
    node, one rack and the same parameters on every tier ({!create}).
    [lib/topology] provides builders and presets; this record is the
    simulator-facing core so routing can live next to the port schedule. *)

type fabric = {
  f_node_of : int array;  (** world rank → node id *)
  f_rack_of : int array;  (** node id → rack id *)
  f_node : params;  (** pairs on the same node *)
  f_rack : params;  (** pairs on the same rack, different nodes *)
  f_core : params;  (** pairs in different racks *)
  f_uplinks : int;
      (** shared uplink ports per node; inter-node messages from one node
          serialize across them ([0] = uncongested uplinks, the flat
          behavior) *)
}

(** [validate_fabric f] checks that [f] is dense and consistent: it places
    at least one rank, every node id indexes [f_rack_of], rack ids and the
    uplink count are non-negative, and every node hosts at least one rank.
    @raise Invalid_argument with a specific message otherwise. *)
val validate_fabric : fabric -> unit

(** [two_tier ~node_size ~ranks ()] is a cluster of shared-memory nodes
    with block placement (rank [r] on node [r / node_size]) and a single
    rack, so the rack tier collapses onto the inter-node parameters:
    {!intra_node} within a node, {!default} between nodes.
    @param uplinks shared uplink ports per node (default [0])
    @raise Invalid_argument unless [node_size] and [ranks] are positive. *)
val two_tier : ?uplinks:int -> node_size:int -> ranks:int -> unit -> fabric

(** [fat_tree ~node_size ~nodes_per_rack ~ranks ()] is a three-tier fat
    tree: block rank placement, consecutive nodes blocked into racks;
    {!intra_node} within a node, {!low_latency} within a rack and
    {!default} across racks.
    @param uplinks shared uplink ports per node (default [0]) *)
val fat_tree :
  ?uplinks:int ->
  node_size:int ->
  nodes_per_rack:int ->
  ranks:int ->
  unit ->
  fabric

type t

(** [create params ~ranks] is the flat model: every rank on its own node,
    all in one rack, [params] on every tier. *)
val create : params -> ranks:int -> t

(** [create_fabric f ~ranks] builds the model of fabric [f], which must
    place exactly [ranks] ranks.
    @raise Invalid_argument if [f] fails {!validate_fabric} or places a
    different number of ranks. *)
val create_fabric : fabric -> ranks:int -> t

(** [fabric_of_spec ~ranks spec] parses an [MPISIM_TOPOLOGY]-style spec:
    ["two:<node_size>"] is [two_tier ~node_size ~ranks ()] and
    ["fat:<node_size>:<nodes_per_rack>\[:<uplinks>\]"] is
    [fat_tree ~node_size ~nodes_per_rack ~uplinks ~ranks ()] ([uplinks]
    default [0]).  Raises [Invalid_argument] on a malformed spec. *)
val fabric_of_spec : ranks:int -> string -> fabric

(** [params t] returns the core-tier parameters (the flat model's only
    set). *)
val params : t -> params

(** [node_of t r] is the shared-memory node hosting world rank [r] ([r]
    itself on the flat model). *)
val node_of : t -> int -> int

(** [rack_of_rank t r] is the rack of [r]'s node ([0] on the flat model). *)
val rack_of_rank : t -> int -> int

(** [params_between t ~src ~dst] is the parameter set governing one pair. *)
val params_between : t -> src:int -> dst:int -> params

(** [transfer t ~now ~src ~dst ~bytes ~pack_factor] books a message into the
    port schedule and returns [(send_complete, arrival)]: the simulated time
    at which the sender's buffer is free (local send completion), and the
    time at which the message is fully available at the receiver. *)
val transfer :
  t -> now:float -> src:int -> dst:int -> bytes:int -> pack_factor:float -> float * float

(** {1 Cost prediction}

    Analytic LogGP terms matching {!transfer}, used by the collective
    algorithm selection layer to predict a candidate algorithm's cost
    without running it. *)

(** [startup_cost p] is the fixed cost of one uncongested message:
    [send_overhead + latency + recv_overhead] (the "alpha" term). *)
val startup_cost : params -> float

(** [per_byte_cost p] is the marginal cost per payload byte:
    [injection_byte_time + byte_time] (the "beta" term). *)
val per_byte_cost : params -> float

(** [msg_cost p ~bytes] is the end-to-end time of one uncongested message. *)
val msg_cost : params -> bytes:int -> float

(** [params_for_group t group] is the parameter set a collective over the
    given world ranks should plan with: the tightest tier containing every
    member (node, then rack, then core; the core tier for an empty
    group). *)
val params_for_group : t -> int array -> params

(** A topology-aware planning profile for a group that spans nodes:
    instead of collapsing to the single pessimistic spanning tier (what
    {!params_for_group} returns), hierarchical collective algorithms plan
    intra-node phases with [h_intra] and leader phases with [h_inter]. *)
type hier_profile = {
  h_intra : params;  (** cost of a message between two ranks on one node *)
  h_inter : params;  (** cost of the worst tier the group spans *)
  h_nodes : int;  (** number of distinct nodes occupied by the group *)
  h_max_per_node : int;  (** population of the fullest node *)
}

(** [hier_for_group t group] is the hierarchical profile of the group, or
    [None] when its placement leaves no hierarchy to exploit: the group
    sits on one node (where {!params_for_group} is already exact) or holds
    one rank per node (every group of the flat model). *)
val hier_for_group : t -> int array -> hier_profile option
