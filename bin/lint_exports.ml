(* lint:exports — every value a library interface exports has a caller.

   Reads the typed trees dune leaves in _build/default after
   `dune build @check`: the .cmti of each lib/**/*.mli for the exported
   values, and the .cmt of every implementation (lib, bin, bench,
   perfbench, examples, test) for the identifiers they reference.  A
   reference from another unit resolves through the interface, so its
   value description carries the uid of the .mli's declaration; a
   reference inside the implementing unit carries the .ml's own uid and
   does not count.  Prints each exported value no other unit references
   and exits 1 if there is any.  Run it from the repository root. *)

let roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then walk path acc
          else if
            Filename.check_suffix name ".cmt"
            || Filename.check_suffix name ".cmti"
          then path :: acc
          else acc)
        acc entries

(* "Simnet__Engine" -> "Simnet.Engine" *)
let display_name modname =
  let b = Buffer.create (String.length modname) in
  let n = String.length modname in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && modname.[!i] = '_' && modname.[!i + 1] = '_' then (
      Buffer.add_char b '.';
      i := !i + 2)
    else (
      Buffer.add_char b modname.[!i];
      incr i)
  done;
  Buffer.contents b

type export = { name : string; loc : Location.t }

let () =
  let build = "_build/default" in
  let files = List.concat_map (fun r -> walk (Filename.concat build r) []) roots in
  let exports : export Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 1024 in
  let used : unit Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 4096 in
  let rec add_sig prefix (s : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            Shape.Uid.Tbl.replace exports vd.val_val.val_uid
              { name = prefix ^ "." ^ vd.val_name.txt; loc = vd.val_loc }
        | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_signature s' -> add_sig (prefix ^ "." ^ m) s'
            | _ -> ())
        | _ -> ())
      s.sig_items
  in
  (* Uids of one unit's .ml and .mli are numbered independently, so a
     unit's references to its own definitions could collide with its
     interface's uids; only references into other units are kept. *)
  let iter unit =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (_, _, vd) -> (
              match vd.val_uid with
              | Item { comp_unit; _ } when comp_unit <> unit ->
                  Shape.Uid.Tbl.replace used vd.val_uid ()
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      match (cmt.cmt_sourcefile, cmt.cmt_annots) with
      | Some src, Interface s when String.starts_with ~prefix:"lib/" src ->
          add_sig (display_name cmt.cmt_modname) s
      | _, Implementation s ->
          let it = iter cmt.cmt_modname in
          it.structure it s
      | _ -> ())
    files;
  if Shape.Uid.Tbl.length exports = 0 then (
    prerr_endline
      ("lint_exports: no library interfaces under " ^ build
     ^ "; run `dune build @check` first");
    exit 2);
  let dead =
    Shape.Uid.Tbl.fold
      (fun uid ex acc ->
        if Shape.Uid.Tbl.mem used uid then acc else ex :: acc)
      exports []
    |> List.sort (fun a b ->
           compare
             (a.loc.loc_start.pos_fname, a.loc.loc_start.pos_lnum)
             (b.loc.loc_start.pos_fname, b.loc.loc_start.pos_lnum))
  in
  List.iter
    (fun ex ->
      Printf.printf "%s:%d: %s is called from no other unit\n"
        ex.loc.loc_start.pos_fname ex.loc.loc_start.pos_lnum ex.name)
    dead;
  Printf.printf "lint_exports: %d exported values, %d without a caller\n"
    (Shape.Uid.Tbl.length exports) (List.length dead);
  if dead <> [] then exit 1
