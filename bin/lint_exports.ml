(* lint:exports — every value a library interface exports has a caller,
   and every optional parameter it declares has a setter.

   Reads the typed trees dune leaves in _build/default after
   `dune build @check`: the .cmti of each lib/**/*.mli for the exported
   values, and the .cmt of every implementation (lib, bin, bench,
   perfbench, examples, test) for the identifiers they reference.  A
   reference from another unit resolves through the interface, so its
   value description carries the uid of the .mli's declaration; a
   reference inside the implementing unit carries the .ml's own uid and
   does not count as a caller.  An optional parameter ?x is set by an
   application that passes ~x: or ?x:, from any unit, the defining one
   included (its own uid is mapped to the export by name).  A forward
   ?x:y, where y is the enclosing function's own optional parameter ?y,
   sets ?x only if some application sets ?y.  Prints each
   exported value no other unit references and each optional parameter
   no application sets, and exits 1 if there is any.  Run it from the
   repository root. *)

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

type export = { name : string; loc : Location.t; optional : string list }

(* A function whose optional parameters are tracked: one other units can
   name, by the uid they see, or any other binding, by its unit and ident. *)
type fn = Global of Shape.Uid.t | Local of string * Ident.t

(* The optional labels of a function type, outermost first. *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) | Tpoly (ret, _) -> optional_labels ret
  | _ -> []

let () =
  let build = "_build/default" in
  let files = List.concat_map (fun r -> walk (Filename.concat build r) []) roots in
  (* interfaces first, so every export is known when a use is resolved *)
  let interfaces, implementations =
    List.partition (fun f -> Filename.check_suffix f ".cmti") files
  in
  let exports : export Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 1024 in
  let by_name : (string, Shape.Uid.t) Hashtbl.t = Hashtbl.create 1024 in
  let has_intf : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let used : unit Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 4096 in
  (* (function, label) pairs an application passes a value of its own,
     and the edges of a forward [?x:x], from the enclosing function's
     optional parameter to the callee's *)
  let direct : (fn * string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let forwards : (fn * string, fn * string) Hashtbl.t = Hashtbl.create 256 in
  let rec add_sig ~lib prefix (s : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let name = prefix ^ "." ^ vd.val_name.txt in
            Hashtbl.replace by_name name vd.val_val.val_uid;
            if lib then
              Shape.Uid.Tbl.replace exports vd.val_val.val_uid
                { name; loc = vd.val_loc; optional = optional_labels vd.val_val.val_type }
        | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_signature s' -> add_sig ~lib (prefix ^ "." ^ m) s'
            | _ -> ())
        | _ -> ())
      s.sig_items
  in
  (* Uids of one unit's .ml and .mli are numbered independently, so a
     unit's references to its own definitions could collide with its
     interface's uids; only references into other units count as calls.
     For setters, [own] maps a unit's top-level definitions by .ml uid,
     and [top] by ident, to the [fn] other units see: the interface's uid
     of the same name, the .ml uid of a unit without an interface, or a
     [Local] for a value its interface hides. *)
  let rec add_own unit prefix (s : Types.signature) own top =
    List.iter
      (function
        | Types.Sig_value (id, vd, _) ->
            let f =
              match Hashtbl.find_opt by_name (prefix ^ "." ^ Ident.name id) with
              | Some uid -> Global uid
              | None when Hashtbl.mem has_intf unit -> Local (unit, id)
              | None -> Global vd.val_uid
            in
            Shape.Uid.Tbl.replace own vd.val_uid f;
            Hashtbl.replace top id f
        | Sig_module (id, _, { md_type = Mty_signature s'; _ }, _, _) ->
            add_own unit (prefix ^ "." ^ Ident.name id) s' own top
        | _ -> ())
      s
  in
  let rec head e =
    match e.Typedtree.exp_desc with
    | Texp_apply (f, _) -> head f
    | Texp_ident (path, _, vd) -> Some (path, vd)
    | _ -> None
  in
  let iter unit own top =
    let foreign = function
      | Shape.Uid.Item { comp_unit; _ } -> comp_unit <> unit
      | _ -> false
    in
    let fn_of_ident id = Option.value (Hashtbl.find_opt top id) ~default:(Local (unit, id)) in
    let fn_of_ref path (vd : Types.value_description) =
      if foreign vd.val_uid then Some (Global vd.val_uid)
      else
        match (Shape.Uid.Tbl.find_opt own vd.val_uid, path) with
        | Some f, _ -> Some f
        | None, Path.Pident id -> Some (fn_of_ident id)
        | None, _ -> None
    in
    (* The optional parameters of each named function, by the ident its
       body sees.  [?x] binds its option directly (in [options]); [?(x = d)]
       binds an option the type checker names, then [x] to its match on it
       (in [values]). *)
    let options : (Ident.t, fn * string) Hashtbl.t = Hashtbl.create 64 in
    let values : (Ident.t, fn * string) Hashtbl.t = Hashtbl.create 64 in
    let rec add_params f (e : Typedtree.expression) =
      match e.exp_desc with
      | Texp_function { arg_label; cases = [ c ]; _ } ->
          (match (arg_label, c.c_lhs.pat_desc) with
          | Optional l, Tpat_var (id, _) -> Hashtbl.replace options id (f, l)
          | _ -> ());
          add_params f c.c_rhs
      | Texp_let (_, vbs, body) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
              | Tpat_var (id, _), Texp_match ({ exp_desc = Texp_ident (Pident o, _, _); _ }, _, _)
                when Hashtbl.mem options o ->
                  Hashtbl.replace values id (Hashtbl.find options o)
              | _ -> ())
            vbs;
          add_params f body
      | _ -> ()
    in
    (* the caller's parameter an argument passes on unchanged: [?x:x] of
       an option, or [~x:x] (which the type checker wraps in [Some]) of a
       defaulted value *)
    let forwarded (a : Typedtree.expression) =
      match a.exp_desc with
      | Texp_ident (Pident id, _, _) -> Hashtbl.find_opt options id
      | Texp_construct
          (_, { cstr_name = "Some"; _ }, [ { exp_desc = Texp_ident (Pident id, _, _); _ } ]) ->
          Hashtbl.find_opt values id
      | _ -> None
    in
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) -> add_params (fn_of_ident id) vb.vb_expr
          | _ -> ());
          Tast_iterator.default_iterator.value_binding self vb);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (_, _, vd) when foreign vd.val_uid ->
              Shape.Uid.Tbl.replace used vd.val_uid ()
          | Texp_apply (f, args) ->
              (* An omitted optional argument of a total application is
                 filled with a [None] the type checker places at
                 [Location.none]; a forwarded parameter passes on
                 whatever the caller was given. *)
              Option.iter
                (fun target ->
                  List.iter
                    (function
                      | Asttypes.Optional l, Some (a : Typedtree.expression)
                        when a.exp_loc <> Location.none -> (
                          match forwarded a with
                          | Some src -> Hashtbl.add forwards src (target, l)
                          | None -> Hashtbl.replace direct (target, l) ())
                      | _ -> ())
                    args)
                (Option.bind (head f) (fun (path, vd) -> fn_of_ref path vd))
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  List.iter
    (fun file -> Hashtbl.replace has_intf (Cmt_format.read_cmt file).cmt_modname ())
    interfaces;
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      match (cmt.cmt_sourcefile, cmt.cmt_annots) with
      | Some src, Interface s ->
          add_sig ~lib:(String.starts_with ~prefix:"lib/" src) (display_name cmt.cmt_modname) s
      | _, Implementation s ->
          let own = Shape.Uid.Tbl.create 256 and top = Hashtbl.create 256 in
          add_own cmt.cmt_modname (display_name cmt.cmt_modname) s.str_type own top;
          let it = iter cmt.cmt_modname own top in
          it.structure it s
      | _ -> ())
    (interfaces @ implementations);
  if Shape.Uid.Tbl.length exports = 0 then (
    prerr_endline
      ("lint_exports: no library interfaces under " ^ build
     ^ "; run `dune build @check` first");
    exit 2);
  (* a parameter is set when a direct setter reaches it through forwards *)
  let set = Hashtbl.create 1024 in
  let rec reach k =
    if not (Hashtbl.mem set k) then (
      Hashtbl.replace set k ();
      List.iter reach (Hashtbl.find_all forwards k))
  in
  Hashtbl.iter (fun k () -> reach k) direct;
  let dead, unset =
    Shape.Uid.Tbl.fold
      (fun uid ex (dead, unset) ->
        ( (if Shape.Uid.Tbl.mem used uid then dead else ex :: dead),
          match List.filter (fun l -> not (Hashtbl.mem set (Global uid, l))) ex.optional with
          | [] -> unset
          | optional -> { ex with optional } :: unset ))
      exports ([], [])
  in
  let by_loc a b =
    compare
      (a.loc.loc_start.pos_fname, a.loc.loc_start.pos_lnum)
      (b.loc.loc_start.pos_fname, b.loc.loc_start.pos_lnum)
  in
  let where ex = Printf.sprintf "%s:%d" ex.loc.loc_start.pos_fname ex.loc.loc_start.pos_lnum in
  List.iter
    (fun ex -> Printf.printf "%s: %s is called from no other unit\n" (where ex) ex.name)
    (List.sort by_loc dead);
  List.iter
    (fun ex ->
      List.iter (fun l -> Printf.printf "%s: %s ?%s is set by no call\n" (where ex) ex.name l) ex.optional)
    (List.sort by_loc unset);
  let n_optional = List.fold_left (fun n ex -> n + List.length ex.optional) 0 in
  Printf.printf
    "lint_exports: %d exported values, %d without a caller; %d optional parameters, %d without \
     a setter\n"
    (Shape.Uid.Tbl.length exports) (List.length dead)
    (n_optional (Shape.Uid.Tbl.fold (fun _ ex acc -> ex :: acc) exports []))
    (n_optional unset);
  if dead <> [] || unset <> [] then exit 1
