module A = Serde.Archive

type t = { epoch : int; rank : int; payload : Bytes.t }

exception Wrong_epoch of { expected : int; got : int }

(* "CKPT" as a little varint-friendly tag: corrupted buffers almost never
   start with it, so decode fails fast with a useful message. *)
let magic = 0x434b

let encode t =
  A.build (fun w ->
      A.write_varint w magic;
      A.write_varint w t.epoch;
      A.write_varint w t.rank;
      A.write_bytes w t.payload)

let decode b =
  let r = A.reader ~pos:0 ~len:(Bytes.length b) b in
  let m = A.read_varint r in
  if m <> magic then raise (A.Corrupt (Printf.sprintf "snapshot: bad magic %#x" m));
  let epoch = A.read_varint r in
  if epoch < 0 then raise (A.Corrupt (Printf.sprintf "snapshot: negative epoch %d" epoch));
  let rank = A.read_varint r in
  if rank < 0 then raise (A.Corrupt (Printf.sprintf "snapshot: negative rank %d" rank));
  let payload = A.read_bytes r in
  if not (A.at_end r) then
    raise (A.Corrupt (Printf.sprintf "snapshot: %d trailing bytes" (A.remaining r)));
  { epoch; rank; payload }

let decode_expect ~epoch b =
  let s = decode b in
  if s.epoch <> epoch then raise (Wrong_epoch { expected = epoch; got = s.epoch });
  s
