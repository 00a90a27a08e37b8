module A = Serde.Archive

type entry = {
  name : string;
  save : shard:int -> Bytes.t;
  restore : shard:int -> Bytes.t -> unit;
}

type t = { mutable entries : entry list (* reverse registration order *) }

let create () = { entries = [] }
let names t = List.rev_map (fun e -> e.name) t.entries
let is_empty t = t.entries = []

let register t ~name codec ~save ~restore =
  if List.exists (fun e -> e.name = name) t.entries then
    Mpisim.Errors.usage "Ckpt.register: duplicate entry %S" name;
  let save ~shard = Serde.Codec.encode codec (save ~shard) in
  let restore ~shard b = restore ~shard (Serde.Codec.decode codec b) in
  t.entries <- { name; save; restore } :: t.entries

let save_shard t ~shard =
  let saved = List.map (fun e -> (e.name, e.save ~shard)) (List.rev t.entries) in
  A.build (fun w ->
      A.write_varint w (List.length saved);
      List.iter
        (fun (name, b) ->
          A.write_string w name;
          A.write_bytes w b)
        saved)

let restore_shard t ~shard b =
  let entries = List.rev t.entries in
  let r = A.reader ~pos:0 ~len:(Bytes.length b) b in
  let n = A.read_varint r in
  let expected = List.length entries in
  if n <> expected then
    raise
      (A.Corrupt
         (Printf.sprintf "registry: bundle has %d entries, registry has %d" n expected));
  List.iter
    (fun e ->
      let name = A.read_string r in
      if name <> e.name then
        raise
          (A.Corrupt (Printf.sprintf "registry: bundle entry %S, expected %S" name e.name));
      e.restore ~shard (A.read_bytes r))
    entries;
  if not (A.at_end r) then
    raise (A.Corrupt (Printf.sprintf "registry: %d trailing bytes" (A.remaining r)))
