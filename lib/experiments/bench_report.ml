module J = Serde.Json

let fail name fmt = Printf.ksprintf (fun msg -> failwith (name ^ ": " ^ msg)) fmt

(* What reading the printed form of [v] gives back. *)
let rec as_read = function
  | J.Num f when not (Float.is_finite f) -> J.Null
  | J.List items -> J.List (List.map as_read items)
  | J.Obj kvs -> J.Obj (List.map (fun (k, v) -> (k, as_read v)) kvs)
  | v -> v

let write ~name ~path doc =
  let text =
    try
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (J.to_string doc);
          Out_channel.output_char oc '\n');
      In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> fail name "cannot write %s: %s" path msg
  in
  let parsed =
    try J.parse text
    with J.Parse_error (pos, msg) -> fail name "%s does not parse back (byte %d: %s)" path pos msg
  in
  if not (J.equal parsed (as_read doc)) then
    fail name "%s did not round-trip through Serde.Json" path;
  parsed

let report ~name ~path body checks =
  let fields =
    match body with
    | J.Obj kvs when not (List.mem_assoc "checks" kvs) -> kvs
    | J.Obj _ -> fail name "the report body already has a \"checks\" key"
    | _ -> fail name "the report body must be a JSON object"
  in
  List.iter (fun (check, ok) -> Printf.printf "  %-45s %b\n" check ok) checks;
  let doc = J.Obj (fields @ [ ("checks", J.Obj (List.map (fun (c, ok) -> (c, J.Bool ok)) checks)) ]) in
  ignore (write ~name ~path doc : J.t);
  match List.filter_map (fun (check, ok) -> if ok then None else Some check) checks with
  | [] -> Printf.printf "  wrote %s (%d checks pass)\n%!" path (List.length checks)
  | failed -> fail name "%s: failed checks: %s" path (String.concat ", " failed)
