(** MPI datatypes with static type-safety.

    A [('elt, 'buf) gen] describes how values of the OCaml type ['elt]
    appear on the simulated wire: their size in bytes ([extent]), their
    layout class ([kind], which determines the pack/unpack cost
    multiplier, reproducing the paper's Sec. III-D4 observation that
    struct types with alignment gaps communicate slower than contiguous
    bytes), the buffer type ['buf] that holds them, and a runtime type
    witness ([Type.Id]) used to check sender/receiver type matching.

    The datatype owns its buffer representation: every typed datatype
    ['a t] keeps its elements in an ['a array], while {!serialized} keeps
    its bytes in a [Bytes.t], one host byte per wire byte.  The transfer
    paths never look at the buffer type; they move windows through the
    datatype's buffer operations ({!length}, {!sub}, {!blit},
    {!alloc_like}, {!empty}).  Layout belongs to the transfer, not to the
    element type.

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

(** A datatype of ['elt] elements held in buffers of type ['buf]. *)
type ('elt, 'buf) gen

(** A typed datatype: its buffers are element arrays.  Every datatype but
    {!serialized} is one. *)
type 'a t = ('a, 'a array) gen

(** [name dt] is a human-readable type name (used in error messages). *)
val name : ('a, 'b) gen -> string

(** [extent dt] is the number of bytes one element occupies on the wire. *)
val extent : ('a, 'b) gen -> int

(** [kind dt] is the layout class. *)
val kind : ('a, 'b) gen -> kind

(** [pack_factor dt] is the cost multiplier for moving this layout through
    the network model (1.0 for contiguous layouts, >1 for gapped structs). *)
val pack_factor : ('a, 'b) gen -> float

(** {1 Buffer operations}

    What the transfer paths do to a buffer, through its datatype. *)

(** [length dt buf] is the number of elements [buf] holds. *)
val length : ('a, 'b) gen -> 'b -> int

(** [sub dt buf pos n] is a fresh buffer holding the [n] elements of
    [buf] from [pos]. *)
val sub : ('a, 'b) gen -> 'b -> int -> int -> 'b

(** [blit dt src spos dst dpos n] copies [n] elements of [src] from [spos]
    into [dst] at [dpos]. *)
val blit : ('a, 'b) gen -> 'b -> int -> 'b -> int -> int -> unit

(** [alloc_like dt buf n] is a fresh buffer of [n] elements with
    unspecified contents.  An array datatype fills it with [buf]'s first
    element, so [buf] must not be empty unless [n] is 0. *)
val alloc_like : ('a, 'b) gen -> 'b -> int -> 'b

(** [empty dt] is a buffer of no elements. *)
val empty : ('a, 'b) gen -> 'b

(** [bytes dt count] is [count * extent dt].  Raises
    {!Errors.Count_overflow} when [count] is negative or the product does
    not fit the host integer — the large-count-safe byte-size path every
    transfer goes through (MPI-4 [MPI_Count]). *)
val bytes : ('a, 'b) gen -> int -> int

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
    same datatype; it proves both their element and their buffer types
    equal. *)
val equal_witness : ('a, 'b) gen -> ('c, 'd) gen -> ('a * 'b, 'c * 'd) Type.eq option

(** [default_elt dt] is a sample element used to allocate receive buffers
    (all basic types have one; derived types inherit it; [custom] types
    provide one explicitly). *)
val default_elt : ('a, 'b) gen -> 'a option

(** {1 Basic datatypes} *)

val int : int t
val float : float t
val char : char t
val bool : bool t

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

(** [serialized] is an opaque serialized payload held in [Bytes]: one
    host byte per wire byte, from the sender's window through the message
    in flight to the receiver's window.  It matches only itself: a {!char}
    receive of a serialized message is a type mismatch. *)
val serialized : (char, Bytes.t) gen

(** [serialization_cost ~bytes] is the simulated CPU seconds to encode or
    decode a [bytes]-byte {!serialized} payload: 50 ns plus 2 ns per byte.
    Every binding that serializes charges this one formula. *)
val serialization_cost : bytes:int -> float

(** {1 Commit tracking}

    MPI requires committing derived types before use; the simulated runtime
    does this transparently on first use (Construct-On-First-Use) but tracks
    it so tests can observe that no type is leaked or double-committed. *)

(** [committed dt] is true once the type has been used in communication. *)
val committed : ('a, 'b) gen -> bool

(** [mark_committed dt] records first use. *)
val mark_committed : ('a, 'b) gen -> unit

(** [live_committed_types ()] is the number of committed types currently
    registered (for leak tests). *)
val live_committed_types : unit -> int
