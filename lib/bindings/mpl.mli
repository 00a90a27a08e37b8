(** Style-faithful emulation of MPL (paper Sec. II).

    Captured design traits: a {e layout} system describes every buffer
    (powerful for halo exchanges, verbose for irregular discrete
    algorithms); variable-size collectives do not pass counts and
    displacements to the native call but construct per-peer derived
    datatypes, so they take the [MPI_Alltoallw] fallback path — the
    documented reason MPL's v-collectives are slower and scale worse
    (Ghosh et al., cited in Sec. II).  No default parameters, no error
    handling, no serialization. *)

type comm

(** A layout describes a window of a buffer: element count and
    displacement. *)
type layout

val wrap : Mpisim.Comm.t -> comm
val rank : comm -> int
val size : comm -> int

(** [contiguous_layout ~count ~displ] is the only layout the discrete
    algorithms here need (MPL offers many more for stencil codes). *)
val contiguous_layout : ?displ:int -> count:int -> unit -> layout

(** [empty_layout] is a zero-element layout. *)
val empty_layout : layout

(** [layouts ls] bundles per-rank layouts for v-collectives. *)
val layout_count : layout -> int

val layout_displ : layout -> int

val allgather : comm -> 'a Mpisim.Datatype.t -> 'a array -> 'a array -> count:int -> unit

(** [allgatherv comm dt sendbuf send_layout recvbuf recv_layouts]: goes
    through the alltoallw path. *)
val allgatherv :
  comm -> 'a Mpisim.Datatype.t -> 'a array -> layout -> 'a array -> layout array -> unit

(** [alltoallv comm dt sendbuf send_layouts recvbuf recv_layouts]: goes
    through the alltoallw path. *)
val alltoallv :
  comm -> 'a Mpisim.Datatype.t -> 'a array -> layout array -> 'a array -> layout array -> unit

val alltoall : comm -> 'a Mpisim.Datatype.t -> 'a array -> 'a array -> count:int -> unit
val allreduce : comm -> 'a Mpisim.Datatype.t -> 'a Mpisim.Op.t -> 'a -> 'a
