(** Utilities for block-distributed global arrays, shared by the text
    indexing algorithms (prefix doubling, DCX): shifted fetches, routing of
    values to index owners, and dense ranking of globally sorted
    sequences.  All exchanges compute their counts locally from the block
    layout. *)

(** [block_of ~n ~p r] is [(first, count)] of rank [r]'s block. *)
val block_of : n:int -> p:int -> int -> int * int

(** [fetch_shifted comm ~n ~k ~fill dt local] returns this rank's view of
    the global array shifted left by [k] ([fill] past the end). *)
val fetch_shifted :
  Kamping.Comm.t -> n:int -> k:int -> fill:'a -> 'a Mpisim.Datatype.t -> 'a array -> 'a array

(** [route comm ~n dt pairs] delivers each [(index, value)] pair to the
    owner of [index]. *)
val route :
  Kamping.Comm.t -> n:int -> 'v Mpisim.Datatype.t -> (int * 'v) Ds.Vec.t -> (int * 'v) Ds.Vec.t

(** [dense_ranks comm dt ~eq ~none keys] assigns dense 0-based ranks to a
    globally sorted distributed sequence (equal keys share a rank); returns
    [(local ranks, total distinct, global offset of this slice)]. *)
val dense_ranks :
  Kamping.Comm.t ->
  'k Mpisim.Datatype.t ->
  eq:('k -> 'k -> bool) ->
  none:'k ->
  'k Ds.Vec.t ->
  int array * int * int
