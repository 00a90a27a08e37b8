(** MPI datatypes with static type-safety.

    A ['a t] describes how values of the OCaml type ['a] appear on the
    simulated wire: their size in bytes ([extent]), their layout class
    ([kind], which determines the pack/unpack cost multiplier, reproducing
    the paper's Sec. III-D4 observation that struct types with alignment
    gaps communicate slower than contiguous bytes), and a runtime type
    witness ([Type.Id]) used to check sender/receiver type matching.

    Matching is by datatype identity: like MPI type signatures, the sender's
    and receiver's datatypes must agree, and a mismatch raises
    {!Errors.Type_mismatch} at matching time.  Derived-type constructors
    ({!pair}, {!contiguous}) are memoized in a global type pool (the
    analogue of Boost.MPI's and KaMPIng's type registries), so structurally
    equal derived types are physically equal and match. *)

(** Layout class of a datatype. *)
type kind =
  | Basic  (** built-in scalar *)
  | Contiguous_bytes  (** trivially-copyable block; fastest layout *)
  | Struct of { fields : int; payload_bytes : int; padding_bytes : int }
      (** explicit struct layout; pays a non-contiguous access penalty and
          does not transfer padding *)
  | Serialized  (** opaque serialized byte stream *)

type 'a t

(** [name dt] is a human-readable type name (used in error messages). *)
val name : 'a t -> string

(** [extent dt] is the number of bytes one element occupies on the wire. *)
val extent : 'a t -> int

(** [kind dt] is the layout class. *)
val kind : 'a t -> kind

(** [pack_factor dt] is the cost multiplier for moving this layout through
    the network model (1.0 for contiguous layouts, >1 for gapped structs). *)
val pack_factor : 'a t -> float

(** [bytes dt count] is [count * extent dt].  Raises
    {!Errors.Count_overflow} when [count] is negative or the product does
    not fit the host integer — the large-count-safe byte-size path every
    transfer goes through (MPI-4 [MPI_Count]). *)
val bytes : 'a t -> int -> int

(** Largest count representable in an MPI-3 style 32-bit signed count field
    ([2^31 - 1]).  Counts above this use the large-count wire encoding
    ({!split_count}/{!join_count}). *)
val max_small_count : int

(** [split_count c] encodes a (possibly > 2^31) count as [(hi, lo)] 31-bit
    halves for transport through 32-bit wire fields.  Raises
    {!Errors.Count_overflow} on negative counts. *)
val split_count : int -> int * int

(** [join_count ~hi ~lo] inverts {!split_count}.  Raises
    {!Errors.Usage_error} when either half is out of 31-bit range. *)
val join_count : hi:int -> lo:int -> int

(** [equal_witness a b] is the type-equality proof if [a] and [b] are the
    same datatype. *)
val equal_witness : 'a t -> 'b t -> ('a, 'b) Type.eq option

(** [pp fmt dt] prints the datatype name. *)
val pp : Format.formatter -> 'a t -> unit

(** [default_elt dt] is a sample element used to allocate receive buffers
    (all basic types have one; derived types inherit it; [custom] types
    provide one explicitly). *)
val default_elt : 'a t -> 'a option

(** {1 Basic datatypes} *)

val int : int t
val float : float t
val char : char t
val bool : bool t
val int32 : int32 t
val int64 : int64 t

(** Raw bytes, extent 1 — the carrier of serialized payloads. *)
val byte : char t

(** {1 Derived datatypes} *)

(** [pair a b] is the product type; memoized, so repeated calls with the
    same components return the identical datatype. *)
val pair : 'a t -> 'b t -> ('a * 'b) t

(** [triple a b c] is the 3-way product type; memoized. *)
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** [contiguous dt n] is a block of [n] elements of [dt] treated as one
    element (MPI_Type_contiguous); memoized per [(dt, n)]. *)
val contiguous : 'a t -> int -> 'a array t

(** [custom ~name ~extent ()] declares a fresh user datatype with a
    contiguous-bytes layout (the paper's default for trivially copyable
    types).  Each call creates a distinct type: create it once, then
    share.  [default] supplies a sample element so the library can allocate
    receive buffers of this type (see {!default_elt}). *)
val custom : ?default:'a -> name:string -> extent:int -> unit -> 'a t

(** [struct_type ~name fields] builds an explicit struct layout from
    [(field_name, size, alignment)] triples, computing padded extent like a
    C compiler would.  The resulting type transfers only the payload bytes
    but pays a non-contiguous pack penalty — the trade-off measured in
    Sec. III-D4. *)
val struct_type : ?default:'a -> name:string -> (string * int * int) list -> 'a t

(** [serialized] tags a [char array] buffer as an opaque serialized
    payload.  It travels as [Bytes] ({!Msg.Serialized}) and matches only
    itself: a {!char} receive of a serialized message is a type mismatch. *)
val serialized : char t

(** {1 Commit tracking}

    MPI requires committing derived types before use; the simulated runtime
    does this transparently on first use (Construct-On-First-Use) but tracks
    it so tests can observe that no type is leaked or double-committed. *)

(** [committed dt] is true once the type has been used in communication. *)
val committed : 'a t -> bool

(** [mark_committed dt] records first use. *)
val mark_committed : 'a t -> unit

(** [live_committed_types ()] is the number of committed types currently
    registered (for leak tests). *)
val live_committed_types : unit -> int
