type field =
  | Int of string
  | Int32 of string
  | Int64 of string
  | Float of string
  | Char of string
  | Bool of string
  | Array of string * int * field

let rec size_of = function
  | Int _ | Int64 _ | Float _ -> 8
  | Int32 _ -> 4
  | Char _ | Bool _ -> 1
  | Array (_, n, elt) -> n * size_of elt

let rec align_of = function
  | Int _ | Int64 _ | Float _ -> 8
  | Int32 _ -> 4
  | Char _ | Bool _ -> 1
  | Array (_, _, elt) -> align_of elt

let field_name = function
  | Int n | Int32 n | Int64 n | Float n | Char n | Bool n -> n
  | Array (n, _, _) -> n

let to_triples fields =
  List.map (fun f -> (field_name f, size_of f, align_of f)) fields

let payload_bytes fields = List.fold_left (fun acc f -> acc + size_of f) 0 fields

let padding fields =
  (* Recompute the C layout the same way Datatype.struct_type does. *)
  let offset = ref 0 and max_align = ref 1 in
  List.iter
    (fun f ->
      let align = align_of f in
      max_align := max !max_align align;
      let misalign = !offset mod align in
      if misalign <> 0 then offset := !offset + (align - misalign);
      offset := !offset + size_of f)
    fields;
  let tail = !offset mod !max_align in
  let extent = if tail = 0 then !offset else !offset + (!max_align - tail) in
  extent - payload_bytes fields

(* The contiguous-bytes mapping copies the whole in-memory object, padding
   included: slightly more bytes on the wire, but a single memcpy. *)
let trivially_copyable ?default ~name fields =
  Mpisim.Datatype.custom ?default ~name ~extent:(payload_bytes fields + padding fields) ()

let struct_type ?default ~name fields = Mpisim.Datatype.struct_type ?default ~name (to_triples fields)
