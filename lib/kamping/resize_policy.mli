(** Resize policies: fine-grained control over receive-buffer allocation
    (paper Sec. III-C).

    Every KaMPIng operation that writes into a user-supplied container takes
    a resize policy deciding what happens when the container is smaller than
    the incoming data:

    - [Resize_to_fit]: always resize to exactly the needed size (the
      convenient default of most bindings, with possible hidden
      allocation);
    - [Grow_only]: grow if too small, never shrink (reuses capacity across
      iterations — the algorithm-engineering sweet spot);
    - [No_resize]: never touch the allocation; raise if the data does not
      fit (the zero-allocation mode for highly tuned code, KaMPIng's
      default for user-supplied buffers). *)

type t = Resize_to_fit | Grow_only | No_resize

(** Raised by [No_resize] when the container is too small. *)
exception Buffer_too_small of { needed : int; capacity : int }

(** [prepare policy vec ~needed ~filler] applies the policy so that [vec]
    has length at least [needed] (exactly [needed] for [Resize_to_fit]),
    without initializing the data region beyond what the policy demands.
    Returns [vec]'s backing array for the communication layer. *)
val prepare : t -> 'a Ds.Vec.t -> needed:int -> filler:'a -> 'a array
