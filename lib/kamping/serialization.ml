let wire_of_bytes b = Array.init (Bytes.length b) (Bytes.unsafe_get b)

let bytes_of_wire ?(pos = 0) buf len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i buf.(pos + i)
  done;
  b

let to_wire codec v = wire_of_bytes (Serde.Codec.encode codec v)

let to_wire_parts codec values =
  let parts = Array.map (Serde.Codec.encode codec) values in
  let counts = Array.map Bytes.length parts in
  let wire = Array.make (Array.fold_left ( + ) 0 counts) '\000' in
  let off = ref 0 in
  Array.iter
    (fun b ->
      for i = 0 to Bytes.length b - 1 do
        wire.(!off + i) <- Bytes.unsafe_get b i
      done;
      off := !off + Bytes.length b)
    parts;
  (wire, counts)

let of_wire ?pos codec buf len = Serde.Codec.decode codec (bytes_of_wire ?pos buf len)

let wire_datatype = Mpisim.Datatype.serialized

(* Large counts (MPI-4 MPI_Count) cross the wire as two 31-bit halves so
   that a count header never overflows the int datatype on any side. *)
let encode_count count =
  let hi, lo = Mpisim.Datatype.split_count count in
  [| hi; lo |]

let decode_count arr =
  if Array.length arr <> 2 then
    Mpisim.Errors.usage "Serialization.decode_count: expected 2 halves, got %d" (Array.length arr);
  Mpisim.Datatype.join_count ~hi:arr.(0) ~lo:arr.(1)
