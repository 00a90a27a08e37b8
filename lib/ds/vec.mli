(** Growable array ("vector"), the workhorse container of the library.

    [Vec] plays the role that [std::vector] plays for KaMPIng: it is the
    container that communication wrappers receive into, resize according to a
    {!Kamping.Resize_policy.t}, and return by value.  It exposes its backing
    store through {!unsafe_data} so that communication layers can copy
    elements without bounds checks on the hot path.

    {b Space safety.}  The backing store has spare capacity beyond
    {!length}, and those slots still hold values: {!pop}, {!clear} and a
    shrinking {!resize} lower the length but leave the removed elements in
    place, and growth fills the new spare slots with a witness element (the
    pushed or appended element, or the first stored one for {!reserve}).
    Anything in spare capacity stays reachable for the garbage collector.
    A caller that stores closures or large buffers must overwrite vacated
    slots itself (with {!set} before shrinking, or on the array from
    {!unsafe_data}) if it must not keep them alive. *)

type 'a t

(** [create ()] is an empty vector. *)
val create : unit -> 'a t

(** [make n x] is a vector of length [n] filled with [x]. *)
val make : int -> 'a -> 'a t

(** [init n f] is a vector of length [n] whose [i]-th element is [f i]. *)
val init : int -> (int -> 'a) -> 'a t

(** [of_array a] copies [a] into a fresh vector. *)
val of_array : 'a array -> 'a t

(** [of_list l] copies [l] into a fresh vector. *)
val of_list : 'a list -> 'a t

(** [length v] is the number of elements stored in [v]. *)
val length : 'a t -> int

(** [capacity v] is the size of the backing store of [v]. *)
val capacity : 'a t -> int

(** [is_empty v] is [length v = 0]. *)
val is_empty : 'a t -> bool

(** [get v i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)
val get : 'a t -> int -> 'a

(** [set v i x] replaces the [i]-th element.  @raise Invalid_argument if out
    of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** [push v x] appends [x], growing the backing store geometrically if
    needed; growth fills the new spare slots with [x]. *)
val push : 'a t -> 'a -> unit

(** [pop v] removes and returns the last element.  The element stays in
    the vacated slot, so the vector keeps it reachable.
    @raise Invalid_argument on an empty vector. *)
val pop : 'a t -> 'a

(** [clear v] resets the length to [0] without releasing storage; the
    elements stay reachable from it. *)
val clear : 'a t -> unit

(** [resize v n x] sets the length to [n]; new slots are filled with [x].
    Shrinking keeps the backing store, with the removed elements still in
    it. *)
val resize : 'a t -> int -> 'a -> unit

(** [reserve v n] ensures the backing store holds at least [n] elements. *)
val reserve : 'a t -> int -> unit

(** [ensure_length v n x] grows [v] to length [n] (filling with [x]) if it is
    shorter; never shrinks. *)
val ensure_length : 'a t -> int -> 'a -> unit

(** [append v w] appends all elements of [w] to [v]. *)
val append : 'a t -> 'a t -> unit

(** [append_array v a] appends all elements of [a] to [v]. *)
val append_array : 'a t -> 'a array -> unit

(** [blit src spos dst dpos n] copies [n] elements; both ranges must be in
    bounds. *)
val blit : 'a t -> int -> 'a t -> int -> int -> unit

(** [sub v pos n] is a fresh vector with elements [pos..pos+n-1]. *)
val sub : 'a t -> int -> int -> 'a t

(** [copy v] is a fresh vector with the same contents. *)
val copy : 'a t -> 'a t

(** [to_array v] copies the contents into a fresh array of size
    [length v]. *)
val to_array : 'a t -> 'a array

(** [to_list v] is the contents as a list. *)
val to_list : 'a t -> 'a list

(** [iter f v] applies [f] to every element in index order. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri f v] applies [f i x] to every element in index order. *)
val iteri : (int -> 'a -> unit) -> 'a t -> unit

(** [map f v] is a fresh vector with [f] applied to every element. *)
val map : ('a -> 'b) -> 'a t -> 'b t

(** [fold_left f acc v] folds over the elements in index order. *)
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** [exists p v] is true iff some element satisfies [p]. *)
val exists : ('a -> bool) -> 'a t -> bool

(** [for_all p v] is true iff every element satisfies [p]. *)
val for_all : ('a -> bool) -> 'a t -> bool

(** [sort cmp v] sorts in place. *)
val sort : ('a -> 'a -> int) -> 'a t -> unit

(** [equal eq a b] is structural equality with element comparison [eq]. *)
val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

(** [unsafe_data v] exposes the backing array.  Only indices
    [0 .. length v - 1] hold valid elements; the array may be replaced by any
    growing operation, so the reference must not be retained across
    mutations. *)
val unsafe_data : 'a t -> 'a array

(** [unsafe_of_array a n] wraps [a] as a vector of length [n] without
    copying.  Ownership of [a] transfers to the vector. *)
val unsafe_of_array : 'a array -> int -> 'a t

(** [pp pp_elt fmt v] prints [v] as [[x0; x1; ...]]. *)
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
