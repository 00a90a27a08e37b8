(* Tests for the shared BENCH report writer (lib/experiments): the happy
   path round-trips, false checks are all named, and every failure path
   raises a [Failure] that names the report rather than a bare
   exception. *)

module J = Serde.Json
module R = Experiments.Bench_report

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "%d_%s" (Unix.getpid ()) name)

let read path = In_channel.with_open_text path In_channel.input_all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Runs [f], which must fail with a [Failure] whose message starts with
   the report name and contains every one of [parts]. *)
let check_fails label ~parts f =
  match f () with
  | () -> Alcotest.failf "%s: expected a failure" label
  | exception Failure msg ->
      Alcotest.(check bool) (label ^ ": names the report") true (contains msg "demo: ");
      List.iter
        (fun p -> Alcotest.(check bool) (Printf.sprintf "%s: mentions %S" label p) true (contains msg p))
        parts

let body = J.Obj [ ("workload", J.Str "demo"); ("ranks", J.Num 8.0); ("ratio", J.Num 0.1) ]

let test_all_true () =
  let path = tmp "bench_report_ok.json" in
  R.report ~name:"demo" ~path body [ ("fast", true); ("exact", true) ];
  let expected =
    J.Obj
      [
        ("workload", J.Str "demo");
        ("ranks", J.Num 8.0);
        ("ratio", J.Num 0.1);
        ("checks", J.Obj [ ("fast", J.Bool true); ("exact", J.Bool true) ]);
      ]
  in
  Alcotest.(check bool) "file holds body + checks" true (J.equal (J.parse (read path)) expected);
  Sys.remove path

let test_false_checks_named () =
  let path = tmp "bench_report_false.json" in
  check_fails "two false checks" ~parts:[ "too_slow"; "diverged" ] (fun () ->
      R.report ~name:"demo" ~path body [ ("too_slow", false); ("fine", true); ("diverged", false) ]);
  (* the file is still written, with the false checks recorded *)
  (match J.member "checks" (J.parse (read path)) with
  | Some checks ->
      Alcotest.(check bool) "false check recorded" true
        (J.member "diverged" checks = Some (J.Bool false))
  | None -> Alcotest.fail "no checks object written");
  Sys.remove path

let test_non_finite_reads_back () =
  let path = tmp "bench_report_nan.json" in
  let doc = J.Obj [ ("p99", J.Num Float.nan); ("max", J.Num Float.infinity) ] in
  let parsed = R.write ~name:"demo" ~path doc in
  Alcotest.(check bool) "non-finite numbers read back as null" true
    (J.equal parsed (J.Obj [ ("p99", J.Null); ("max", J.Null) ]));
  Sys.remove path

let test_failure_paths () =
  let missing_dir = tmp "bench_report_no_such_dir" in
  let unwritable = Filename.concat missing_dir "out.json" in
  check_fails "unwritable path" ~parts:[ "cannot write"; unwritable ] (fun () ->
      R.report ~name:"demo" ~path:unwritable body [ ("ok", true) ]);
  check_fails "non-object body" ~parts:[ "JSON object" ] (fun () ->
      R.report ~name:"demo" ~path:(tmp "bench_report_list.json") (J.List []) [ ("ok", true) ]);
  check_fails "body with its own checks" ~parts:[ "\"checks\"" ] (fun () ->
      R.report ~name:"demo" ~path:(tmp "bench_report_dup.json")
        (J.Obj [ ("checks", J.Obj []) ])
        [ ("ok", true) ]);
  (* a path that swallows what is written cannot be read back *)
  if Sys.file_exists "/dev/null" then
    check_fails "file does not read back" ~parts:[ "does not parse back" ] (fun () ->
        R.report ~name:"demo" ~path:"/dev/null" body [ ("ok", true) ])

let suite =
  [
    Alcotest.test_case "all-true report writes and round-trips" `Quick test_all_true;
    Alcotest.test_case "false checks are all named" `Quick test_false_checks_named;
    Alcotest.test_case "non-finite numbers read back as null" `Quick test_non_finite_reads_back;
    Alcotest.test_case "failure paths fail legibly" `Quick test_failure_paths;
  ]
