type kind =
  | Basic
  | Contiguous_bytes
  | Struct of { fields : int; payload_bytes : int; padding_bytes : int }
  | Serialized

type 'buf buffer = {
  length : 'buf -> int;
  sub : 'buf -> int -> int -> 'buf;
  blit : 'buf -> int -> 'buf -> int -> int -> unit;
  alloc_like : 'buf -> int -> 'buf;
  empty : 'buf;
}

(* The witness covers the buffer type too, so a proof that two datatypes
   are equal also proves that their buffers are. *)
type ('elt, 'buf) gen = {
  id : ('elt * 'buf) Type.Id.t;
  name : string;
  extent : int;
  pack_factor : float;
  kind : kind;
  default : 'elt option;
  buffer : 'buf buffer;
  mutable committed : bool;
}

type 'a t = ('a, 'a array) gen

let array_buffer =
  {
    length = Array.length;
    sub = Array.sub;
    blit = Array.blit;
    alloc_like = (fun b n -> if n = 0 then [||] else Array.make n b.(0));
    empty = [||];
  }

let bytes_buffer =
  {
    length = Bytes.length;
    sub = Bytes.sub;
    blit = Bytes.blit;
    alloc_like = (fun _ n -> Bytes.create n);
    empty = Bytes.empty;
  }

let length dt buf = dt.buffer.length buf
let sub dt buf pos n = dt.buffer.sub buf pos n
let blit dt src spos dst dpos n = dt.buffer.blit src spos dst dpos n
let alloc_like dt buf n = dt.buffer.alloc_like buf n
let empty dt = dt.buffer.empty
let name dt = dt.name
let extent dt = dt.extent
let kind dt = dt.kind
let pack_factor dt = dt.pack_factor
(* Largest count representable in an MPI-3 style [int] count field (2^31-1).
   Counts at or below this bound with extents at or below it cannot overflow
   the 63-bit host int, so the hot path stays two compares + one multiply. *)
let max_small_count = 0x7FFFFFFF

let bytes dt count =
  if count < 0 || (count > max_small_count && count > max_int / dt.extent) then
    raise (Errors.Count_overflow { count; extent = dt.extent });
  count * dt.extent

let split_count count =
  if count < 0 then raise (Errors.Count_overflow { count; extent = 1 });
  (count lsr 31, count land max_small_count)

let join_count ~hi ~lo =
  if hi < 0 || hi > max_small_count || lo < 0 || lo > max_small_count then
    Errors.usage "Datatype.join_count: halves (%d, %d) out of 31-bit range" hi lo;
  (hi lsl 31) lor lo
let equal_witness a b = Type.Id.provably_equal a.id b.id

let committed_count = ref 0

let make_gen ?default ~buffer ~name ~extent ~pack_factor ~kind () =
  { id = Type.Id.make (); name; extent; pack_factor; kind; default; buffer; committed = false }

let make ?default ~name ~extent ~pack_factor ~kind () : _ t =
  make_gen ?default ~buffer:array_buffer ~name ~extent ~pack_factor ~kind ()

let basic name extent default =
  make ~default ~name ~extent ~pack_factor:1.0 ~kind:Basic ()

let int = basic "int" 8 0
let float = basic "double" 8 0.0
let char = basic "char" 1 '\000'
let bool = basic "bool" 1 false

let default_elt dt = dt.default

(* Global type pool for memoized derived types.  Looking an entry up
   recovers the type witness by comparing the stored component ids, so the
   stored datatype can be returned at its original type. *)

type pooled =
  | Pooled_pair : 'a t * 'b t * ('a * 'b) t -> pooled
  | Pooled_triple : 'a t * 'b t * 'c t * ('a * 'b * 'c) t -> pooled
  | Pooled_contig : 'a t * int * 'a array t -> pooled

let pool : (string, pooled) Hashtbl.t = Hashtbl.create 64

let pool_key_pair a b = Printf.sprintf "p:%d:%d" (Type.Id.uid a.id) (Type.Id.uid b.id)

let pool_key_triple a b c =
  Printf.sprintf "t:%d:%d:%d" (Type.Id.uid a.id) (Type.Id.uid b.id) (Type.Id.uid c.id)

let pool_key_contig a n = Printf.sprintf "c:%d:%d" (Type.Id.uid a.id) n

let pair (type a b) (a : a t) (b : b t) : (a * b) t =
  let key = pool_key_pair a b in
  let build () =
    let default =
      match (a.default, b.default) with Some x, Some y -> Some (x, y) | _ -> None
    in
    let dt =
      make ?default
        ~name:(Printf.sprintf "(%s * %s)" a.name b.name)
        ~extent:(a.extent + b.extent)
        ~pack_factor:(Float.max a.pack_factor b.pack_factor)
        ~kind:Contiguous_bytes ()
    in
    Hashtbl.replace pool key (Pooled_pair (a, b, dt));
    dt
  in
  match Hashtbl.find_opt pool key with
  | Some (Pooled_pair (a', b', dt)) -> begin
      match (Type.Id.provably_equal a.id a'.id, Type.Id.provably_equal b.id b'.id) with
      | Some Type.Equal, Some Type.Equal -> dt
      | _ -> build ()
    end
  | Some _ | None -> build ()

let triple (type a b c) (a : a t) (b : b t) (c : c t) : (a * b * c) t =
  let key = pool_key_triple a b c in
  let build () =
    let default =
      match (a.default, b.default, c.default) with
      | Some x, Some y, Some z -> Some (x, y, z)
      | _ -> None
    in
    let dt =
      make ?default
        ~name:(Printf.sprintf "(%s * %s * %s)" a.name b.name c.name)
        ~extent:(a.extent + b.extent + c.extent)
        ~pack_factor:(Float.max a.pack_factor (Float.max b.pack_factor c.pack_factor))
        ~kind:Contiguous_bytes ()
    in
    Hashtbl.replace pool key (Pooled_triple (a, b, c, dt));
    dt
  in
  match Hashtbl.find_opt pool key with
  | Some (Pooled_triple (a', b', c', dt)) -> begin
      match
        ( Type.Id.provably_equal a.id a'.id,
          Type.Id.provably_equal b.id b'.id,
          Type.Id.provably_equal c.id c'.id )
      with
      | Some Type.Equal, Some Type.Equal, Some Type.Equal -> dt
      | _ -> build ()
    end
  | Some _ | None -> build ()

let contiguous (type a) (a : a t) n : a array t =
  if n <= 0 then Errors.usage "Datatype.contiguous: block length %d must be positive" n;
  let key = pool_key_contig a n in
  let build () =
    let default = Option.map (fun d -> Array.make n d) a.default in
    let dt =
      make ?default
        ~name:(Printf.sprintf "%s[%d]" a.name n)
        ~extent:(n * a.extent)
        ~pack_factor:a.pack_factor
        ~kind:Contiguous_bytes ()
    in
    Hashtbl.replace pool key (Pooled_contig (a, n, dt));
    dt
  in
  match Hashtbl.find_opt pool key with
  | Some (Pooled_contig (a', n', dt)) -> begin
      match Type.Id.provably_equal a.id a'.id with
      | Some Type.Equal when n = n' -> dt
      | _ -> build ()
    end
  | Some _ | None -> build ()

let custom ?default ~name ~extent () =
  if extent <= 0 then Errors.usage "Datatype.custom: extent %d must be positive" extent;
  make ?default ~name ~extent ~pack_factor:1.0 ~kind:Contiguous_bytes ()

(* Struct layout computation, C-style: each field is aligned to its
   alignment requirement, and the total extent is padded to the maximum
   alignment.  The wire only carries the payload bytes (MPI does not
   transfer gaps) but the pack penalty grows with the fraction of padding,
   modelling the non-contiguous memory accesses of Sec. III-D4. *)
let struct_type ?default ~name fields =
  if fields = [] then Errors.usage "Datatype.struct_type: empty field list";
  let offset = ref 0 in
  let max_align = ref 1 in
  let payload = ref 0 in
  List.iter
    (fun (fname, size, align) ->
      if size <= 0 || align <= 0 then
        Errors.usage "Datatype.struct_type: field %s has invalid size/alignment" fname;
      max_align := max !max_align align;
      let misalign = !offset mod align in
      if misalign <> 0 then offset := !offset + (align - misalign);
      offset := !offset + size;
      payload := !payload + size)
    fields;
  let tail = !offset mod !max_align in
  let extent = if tail = 0 then !offset else !offset + (!max_align - tail) in
  let padding = extent - !payload in
  (* Gapped layouts pay for strided copies; a fully packed struct costs the
     same as contiguous bytes. *)
  let pack_factor = 1.0 +. (1.5 *. float_of_int padding /. float_of_int extent) in
  make ?default ~name
    ~extent:!payload (* only payload bytes travel *)
    ~pack_factor
    ~kind:(Struct { fields = List.length fields; payload_bytes = !payload; padding_bytes = padding })
    ()

let serialized =
  make_gen ~default:'\000' ~buffer:bytes_buffer ~name:"serialized" ~extent:1 ~pack_factor:1.0
    ~kind:Serialized ()

(* 2 ns/byte models a fast binary archive plus the intermediate
   allocation; measured against raw memcpy (0.1 ns/byte) this is the
   "non-negligible overhead" of Sec. III-D4. *)
let serialization_cost ~bytes = 50.0e-9 +. (2.0e-9 *. float_of_int bytes)

let committed dt = dt.committed

let mark_committed dt =
  if not dt.committed then begin
    dt.committed <- true;
    incr committed_count
  end

let live_committed_types () = !committed_count
