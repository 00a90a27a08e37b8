(** Cartesian process topologies (the MPI_Cart family).

    Scientific codes with regular stencils (the domain MPL's layout system
    targets, paper Sec. II) organize ranks in a d-dimensional grid and
    exchange boundary layers with their neighbors.  This module provides
    the MPI primitives: grid creation with optional periodicity, coordinate
    queries, and neighbor shifts. *)

type t

(** [create comm ~dims ~periodic] builds the topology; the product of
    [dims] must equal the communicator size, and [periodic] says per
    dimension whether the grid wraps (collective).
    @raise Errors.Usage_error on a dimension mismatch. *)
val create : Comm.t -> dims:int array -> periodic:bool array -> t

(** [dims_create ~nodes ~ndims] factors [nodes] into a balanced
    [ndims]-dimensional grid (MPI_Dims_create). *)
val dims_create : nodes:int -> ndims:int -> int array

(** [comm t] is the underlying communicator. *)
val comm : t -> Comm.t

(** [coords t rank] are the grid coordinates of [rank]
    (MPI_Cart_coords). *)
val coords : t -> int -> int array

(** [rank_of t coords] is the inverse mapping (MPI_Cart_rank); periodic
    dimensions wrap, non-periodic out-of-range coordinates are a usage
    error. *)
val rank_of : t -> int array -> int

(** [shift t ~dim ~disp] is [(source, dest)] for a shift communication
    along [dim] by [disp] (MPI_Cart_shift): [None] where a non-periodic
    boundary cuts the shift off. *)
val shift : t -> dim:int -> disp:int -> int option * int option

(** [halo_exchange t dt ~dim ~send_low ~send_high ~recv_low ~recv_high]
    swaps boundary layers with both neighbors along [dim] in one deadlock-
    free step ([recv_low] receives from the low neighbor what it sent
    "high", and vice versa).  Buffers for absent neighbors are left
    untouched.  Returns the number of neighbors exchanged with. *)
val halo_exchange :
  t ->
  'a Datatype.t ->
  dim:int ->
  send_low:'a array ->
  send_high:'a array ->
  recv_low:'a array ->
  recv_high:'a array ->
  int
