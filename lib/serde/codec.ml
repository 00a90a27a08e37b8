type 'a t = {
  name : string;
  write : Archive.writer -> 'a -> unit;
  read : Archive.reader -> 'a;
  to_json : 'a -> Json.t;
  of_json : Json.t -> 'a;
}

let name c = c.name
let write c = c.write
let read c = c.read
let to_json c = c.to_json
let of_json c = c.of_json

let encode c v =
  let w = Archive.writer () in
  c.write w v;
  Archive.contents w

let decode c b =
  let r = Archive.reader b in
  let v = c.read r in
  if not (Archive.at_end r) then
    raise (Archive.Corrupt (Printf.sprintf "%s: %d trailing bytes" c.name (Archive.remaining r)));
  v

let encode_json c v = Json.to_string (c.to_json v)
let decode_json c s = c.of_json (Json.parse s)

let json_error cname expected =
  raise (Archive.Corrupt (Printf.sprintf "%s: JSON value is not a %s" cname expected))

let unit =
  {
    name = "unit";
    write = (fun _ () -> ());
    read = (fun _ -> ());
    to_json = (fun () -> Json.Null);
    of_json = (function Json.Null -> () | _ -> json_error "unit" "null");
  }

let bool =
  {
    name = "bool";
    write = Archive.write_bool;
    read = Archive.read_bool;
    to_json = (fun b -> Json.Bool b);
    of_json = (function Json.Bool b -> b | _ -> json_error "bool" "bool");
  }

let char =
  {
    name = "char";
    write = Archive.write_byte;
    read = Archive.read_byte;
    to_json = (fun c -> Json.Str (String.make 1 c));
    of_json =
      (function Json.Str s when String.length s = 1 -> s.[0] | _ -> json_error "char" "1-char string");
  }

let int =
  {
    name = "int";
    write = Archive.write_varint;
    read = Archive.read_varint;
    to_json = (fun i -> Json.Num (float_of_int i));
    of_json = (function Json.Num f -> int_of_float f | _ -> json_error "int" "number");
  }

let int64 =
  {
    name = "int64";
    write = Archive.write_int64;
    read = Archive.read_int64;
    (* JSON doubles cannot hold all int64s; carry them as strings. *)
    to_json = (fun i -> Json.Str (Int64.to_string i));
    of_json =
      (function
      | Json.Str s -> (
          match Int64.of_string_opt s with Some i -> i | None -> json_error "int64" "int64 string")
      | Json.Num f -> Int64.of_float f
      | _ -> json_error "int64" "string");
  }

let float =
  {
    name = "float";
    write = Archive.write_float;
    read = Archive.read_float;
    to_json = (fun f -> Json.Num f);
    of_json = (function Json.Num f -> f | _ -> json_error "float" "number");
  }

let string =
  {
    name = "string";
    write = Archive.write_string;
    read = Archive.read_string;
    to_json = (fun s -> Json.Str s);
    of_json = (function Json.Str s -> s | _ -> json_error "string" "string");
  }

let option c =
  {
    name = c.name ^ " option";
    write =
      (fun w v ->
        match v with
        | None -> Archive.write_bool w false
        | Some x ->
            Archive.write_bool w true;
            c.write w x);
    read = (fun r -> if Archive.read_bool r then Some (c.read r) else None);
    to_json = (fun v -> match v with None -> Json.Null | Some x -> Json.List [ c.to_json x ]);
    of_json =
      (function
      | Json.Null -> None
      | Json.List [ j ] -> Some (c.of_json j)
      | _ -> json_error "option" "null or singleton list");
  }

let pair a b =
  {
    name = Printf.sprintf "(%s * %s)" a.name b.name;
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
    to_json = (fun (x, y) -> Json.List [ a.to_json x; b.to_json y ]);
    of_json =
      (function
      | Json.List [ jx; jy ] -> (a.of_json jx, b.of_json jy)
      | _ -> json_error "pair" "2-element list");
  }

let triple a b c =
  {
    name = Printf.sprintf "(%s * %s * %s)" a.name b.name c.name;
    write =
      (fun w (x, y, z) ->
        a.write w x;
        b.write w y;
        c.write w z);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        let z = c.read r in
        (x, y, z));
    to_json = (fun (x, y, z) -> Json.List [ a.to_json x; b.to_json y; c.to_json z ]);
    of_json =
      (function
      | Json.List [ jx; jy; jz ] -> (a.of_json jx, b.of_json jy, c.of_json jz)
      | _ -> json_error "triple" "3-element list");
  }

let list c =
  {
    name = c.name ^ " list";
    write =
      (fun w items ->
        Archive.write_varint w (List.length items);
        List.iter (c.write w) items);
    read =
      (fun r ->
        let n = Archive.read_varint r in
        if n < 0 then raise (Archive.Corrupt "negative list length");
        List.init n (fun _ -> c.read r));
    to_json = (fun items -> Json.List (List.map c.to_json items));
    of_json =
      (function Json.List items -> List.map c.of_json items | _ -> json_error "list" "list");
  }

(* Sequences share [list]'s wire layout (element count as a varint, then
   the elements) but write and read the elements in place.  Reading
   pre-sizes the result from the count, so the count is checked first: an
   element that took bytes bounds the rest by the bytes left, and an
   element that took none can only come from a codec whose every value
   encodes to zero bytes ([unit] and products of it). *)
let write_seq c w n get =
  Archive.write_varint w n;
  for i = 0 to n - 1 do
    c.write w (get i)
  done

let read_seq c r =
  let n = Archive.read_varint r in
  if n < 0 then raise (Archive.Corrupt (c.name ^ " sequence: negative length"));
  if n = 0 then [||]
  else begin
    let before = Archive.remaining r in
    let first = c.read r in
    let left = Archive.remaining r in
    if (left < before && n - 1 > left) || n > Sys.max_array_length then
      raise
        (Archive.Corrupt
           (Printf.sprintf "%s sequence: length %d exceeds the %d bytes left" c.name n left));
    let a = Array.make n first in
    for i = 1 to n - 1 do
      a.(i) <- c.read r
    done;
    a
  end

let array c =
  let as_list = list c in
  {
    name = c.name ^ " array";
    write = (fun w a -> write_seq c w (Array.length a) (Array.unsafe_get a));
    read = read_seq c;
    to_json = (fun items -> as_list.to_json (Array.to_list items));
    of_json = (fun j -> Array.of_list (as_list.of_json j));
  }

let vec c =
  let as_array = array c in
  {
    name = c.name ^ " vec";
    write = (fun w v -> write_seq c w (Ds.Vec.length v) (Ds.Vec.get v));
    read =
      (fun r ->
        let a = read_seq c r in
        Ds.Vec.unsafe_of_array a (Array.length a));
    to_json = (fun v -> as_array.to_json (Ds.Vec.to_array v));
    of_json = (fun j -> Ds.Vec.of_array (as_array.of_json j));
  }

let result okc errc =
  {
    name = Printf.sprintf "(%s, %s) result" okc.name errc.name;
    write =
      (fun w v ->
        match v with
        | Ok x ->
            Archive.write_bool w true;
            okc.write w x
        | Error e ->
            Archive.write_bool w false;
            errc.write w e);
    read = (fun r -> if Archive.read_bool r then Ok (okc.read r) else Error (errc.read r));
    to_json =
      (fun v ->
        match v with
        | Ok x -> Json.Obj [ ("ok", okc.to_json x) ]
        | Error e -> Json.Obj [ ("error", errc.to_json e) ]);
    of_json =
      (fun j ->
        match (Json.member "ok" j, Json.member "error" j) with
        | Some jx, None -> Ok (okc.of_json jx)
        | None, Some je -> Error (errc.of_json je)
        | _ -> json_error "result" "{ok} or {error} object");
  }

let assoc c =
  {
    name = c.name ^ " assoc";
    write =
      (fun w bindings ->
        Archive.write_varint w (List.length bindings);
        List.iter
          (fun (k, v) ->
            Archive.write_string w k;
            c.write w v)
          bindings);
    read =
      (fun r ->
        let n = Archive.read_varint r in
        if n < 0 then raise (Archive.Corrupt "negative assoc length");
        List.init n (fun _ ->
            let k = Archive.read_string r in
            let v = c.read r in
            (k, v)));
    to_json = (fun bindings -> Json.Obj (List.map (fun (k, v) -> (k, c.to_json v)) bindings));
    of_json =
      (function
      | Json.Obj fields -> List.map (fun (k, j) -> (k, c.of_json j)) fields
      | _ -> json_error "assoc" "object");
  }

let hashtbl kc vc =
  let bindings = list (pair kc vc) in
  let to_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let of_bindings bs =
    let tbl = Hashtbl.create (List.length bs) in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bs;
    tbl
  in
  {
    name = Printf.sprintf "(%s, %s) hashtbl" kc.name vc.name;
    write = (fun w tbl -> bindings.write w (to_bindings tbl));
    read = (fun r -> of_bindings (bindings.read r));
    to_json = (fun tbl -> bindings.to_json (to_bindings tbl));
    of_json = (fun j -> of_bindings (bindings.of_json j));
  }

let conv ~name to_repr of_repr repr =
  {
    name;
    write = (fun w v -> repr.write w (to_repr v));
    read = (fun r -> of_repr (repr.read r));
    to_json = (fun v -> repr.to_json (to_repr v));
    of_json = (fun j -> of_repr (repr.of_json j));
  }

let delayed f =
  let forced = lazy (f ()) in
  {
    name = "delayed";
    write = (fun w v -> (Lazy.force forced).write w v);
    read = (fun r -> (Lazy.force forced).read r);
    to_json = (fun v -> (Lazy.force forced).to_json v);
    of_json = (fun j -> (Lazy.force forced).of_json j);
  }
