let to_wire = Serde.Codec.encode

(* Every part goes into one writer, so the parts lie back to back in the
   one archive it builds; the writer's size after each part gives its byte
   count. *)
let to_wire_parts codec values =
  let counts = Array.make (Array.length values) 0 in
  let archive =
    Serde.Archive.build (fun w ->
        Array.iteri
          (fun i v ->
            let before = Serde.Archive.size w in
            Serde.Codec.write codec w v;
            counts.(i) <- Serde.Archive.size w - before)
          values)
  in
  (archive, counts)

let of_wire = Serde.Codec.decode_sub
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
