(** The RAxML-NG integration benchmark (paper Sec. IV-C, Fig. 11): the
    hand-written serialize+broadcast abstraction layer ("before") against
    the KaMPIng one-liner ("after"), driven by a synthetic likelihood
    search at the original MPI call rate.  The "before" layer serializes
    the model into a scratch buffer, broadcasts the size, then the bytes
    (Fig. 11 top); the "after" layer is one KaMPIng call (Fig. 11
    bottom). *)

type stats = { iterations : int; final_logl : float; sim_seconds : float }

(** [search ~variant ~iterations ~taxa comm] runs the synthetic likelihood
    search with the chosen abstraction layer. *)
val search : variant:[ `Before | `After ] -> iterations:int -> taxa:int -> Mpisim.Comm.t -> stats
