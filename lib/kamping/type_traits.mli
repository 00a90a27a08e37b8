(** Mapping OCaml types to wire datatypes (paper Sec. III-D).

    The equivalents of KaMPIng's [mpi_type_traits] specializations:

    - basic OCaml types map to the predefined datatypes;
    - record types are described by a {!field} list — the substitute for
      Boost.PFR reflection — from which either a {e contiguous-bytes} type
      (KaMPIng's default for trivially copyable data, Sec. III-D4) or an
      {e explicit struct} type (with C alignment padding and its
      pack/unpack penalty) is generated;
    - sizes and offsets are computed by the library, so the definition
      cannot go out of sync the way hand-written [MPI_Type_create_struct]
      calls can.

    Every construction is memoizable by the caller: build the datatype once
    at module initialization and share it, exactly like committing an MPI
    type. *)

(** Field descriptors (name, representation).  The names only serve error
    messages and debugging. *)
type field =
  | Int of string
  | Int32 of string
  | Int64 of string
  | Float of string
  | Char of string
  | Bool of string
  | Array of string * int * field  (** fixed-size inline array, e.g. [std::array<int, 3>] *)

(** [trivially_copyable ~name fields] is KaMPIng's default mapping: the
    record is transferred as one contiguous block of bytes {e including}
    any padding — slightly more data on the wire, but a straight memcpy
    (pack factor 1). *)
val trivially_copyable : ?default:'a -> name:string -> field list -> 'a Mpisim.Datatype.t

(** [struct_type ~name fields] is the explicit [MPI_Type_create_struct]
    mapping: C-style padding is computed and skipped on the wire, at the
    cost of strided access (a pack factor > 1 when gaps exist). *)
val struct_type : ?default:'a -> name:string -> field list -> 'a Mpisim.Datatype.t

(** [padding ~name fields] reports how many padding bytes the C layout of
    the record contains (0 means both mappings perform identically). *)
val padding : field list -> int
