(** Conjugate gradient on the 5-point 2-D Laplacian over a Cartesian
    process grid, with three interchangeable halo transports.

    The domain is an [nx * ny] interior grid with zero Dirichlet
    boundary, block-partitioned over a [px * py] process grid
    ({!Mpisim.Cart}); the right-hand side is hashed from the global cell
    index, so every rank regenerates its block without communication.
    Each iteration exchanges one boundary layer per side — via paired
    point-to-point ({!Mpisim.Cart.halo_exchange}), standing MPI-4
    persistent channels ([send_init]/[recv_init]), or an RMA window with
    fence epochs — and folds the two dot products in a fixed per-block
    order (allgather of per-rank partials, reproducible tree over the
    rank index), so the iterates are {e bitwise identical} across
    transports and schedules and equal the host-side {!reference}. *)

type transport = P2p | Persistent | Rma

val transport_name : transport -> string
val all_transports : transport list

type result = {
  x : float array;  (** local block of the solution, row-major *)
  rr : float;  (** final squared residual norm (global) *)
  gi0 : int;  (** first global row of the block *)
  gj0 : int;  (** first global column of the block *)
  lx : int;  (** block rows *)
  ly : int;  (** block columns *)
}

(** [solve ?transport kc ~dims ~nx ~ny ~iters ~seed] runs [iters] CG
    iterations.  [dims = [|px; py|]] must multiply to the communicator
    size, and every block must be non-empty ([nx >= px], [ny >= py]).
    Collective. *)
val solve :
  ?transport:transport ->
  Kamping.Comm.t ->
  dims:int array ->
  nx:int ->
  ny:int ->
  iters:int ->
  seed:int ->
  result

(** [reference ~dims ~nx ~ny ~iters ~seed] is the sequential host-side
    oracle: the full solution field (row-major) and final residual,
    with the dot products folded in the same [dims]-blocked order —
    bitwise equal to the assembled {!solve} blocks. *)
val reference : dims:int array -> nx:int -> ny:int -> iters:int -> seed:int -> float array * float

(** {1 Shared kernels}

    {!reference} and {!Cg_resilient} run the same CG step, {!iterate},
    over their blocks; they differ only in how a block gets its halo and
    how partial dots travel.  {!solve} runs the same recurrence on its
    one block with the arrays bound directly, keeping its hot loop free
    of closures and boxed scalars. *)

(** The CG vectors of one block, row-major: the iterate [x], residual
    [r] and direction [p_], plus the scratch [q = A p]. *)
type block = { x : float array; r : float array; p_ : float array; q : float array }

(** [start_block b] is the start of CG for right-hand side [b]:
    [x = 0], [r = p = b]. *)
val start_block : float array -> block

(** [iterate ~apply ~dot blocks rr] runs one CG iteration over a rank's
    blocks, given the current [rr = r.r], and returns the new one.
    [apply ()] must refresh the halos and set [q = A p] on every block;
    [dot f] must fold the partial dots of the vector pairs [f block]
    over all blocks in a fixed global order. *)
val iterate :
  apply:(unit -> unit) ->
  dot:((block -> float array * float array) -> float) ->
  block list ->
  float ->
  float

val b_at : seed:int -> int -> int -> ny:int -> float

val apply_block :
  lx:int ->
  ly:int ->
  gn:float array ->
  gs:float array ->
  gw:float array ->
  ge:float array ->
  float array ->
  float array ->
  unit

val partial_dot : float array -> float array -> int -> float
val combine_partials : float array -> float
