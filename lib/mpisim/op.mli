(** Reduction operations.

    Like KaMPIng (and Boost.MPI), the library recognizes both {e built-in}
    operations — which a real MPI implementation can optimize — and
    arbitrary user lambdas. *)

type 'a t

(** [apply op a b] combines two values. *)
val apply : 'a t -> 'a -> 'a -> 'a

(** [commutative op] tells the collective algorithms whether they may
    reassociate and commute freely. *)
val commutative : 'a t -> bool

(** [is_builtin op] is true for the predefined operations. *)
val is_builtin : 'a t -> bool

(** [cost_per_element op] is the simulated CPU seconds charged per combined
    element. *)
val cost_per_element : 'a t -> float

(** [of_fun ?commutative f] wraps a user lambda (commutative by default,
    as in MPI_Op_create's default expectation when stated). *)
val of_fun : ?commutative:bool -> ('a -> 'a -> 'a) -> 'a t

(** {1 Built-in operations}

    MPI_SUM, MPI_PROD, MPI_MAX, MPI_MIN, MPI_BAND, MPI_BOR, MPI_BXOR,
    MPI_LAND and MPI_LOR over the named element type. *)

val int_sum : int t
val int_prod : int t
val int_max : int t
val int_min : int t

(** Bitwise and / or / xor over ints. *)
val int_land : int t

val int_lor : int t
val int_lxor : int t
val float_sum : float t
val float_prod : float t
val float_max : float t
val float_min : float t
val bool_and : bool t
val bool_or : bool t
