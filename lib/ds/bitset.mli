(** Fixed-size bitset over [0 .. length-1].

    Used by graph algorithms (visited sets) and by the runtime (alive-rank
    tracking) where a [bool array] would waste memory at scale. *)

type t

(** [create n] is a bitset of capacity [n] with all bits clear. *)
val create : int -> t

(** [set b i] sets bit [i].  @raise Invalid_argument if out of bounds. *)
val set : t -> int -> unit

(** [clear b i] clears bit [i]. *)
val clear : t -> int -> unit

(** [mem b i] is the value of bit [i]. *)
val mem : t -> int -> bool

(** [count b] is the number of set bits. *)
val count : t -> int

(** [iter_set f b] applies [f] to every set index in increasing order. *)
val iter_set : (int -> unit) -> t -> unit

(** [fill b] sets every bit. *)
val fill : t -> unit

(** [reset b] clears every bit. *)
val reset : t -> unit

(** [copy b] is an independent copy. *)
val copy : t -> t

(** [equal a b] holds iff both bitsets have the same capacity and bits. *)
val equal : t -> t -> bool
