(* Tests for the serialization substrate: binary archives, JSON and
   codecs. *)

open Serde

let roundtrip codec v = Codec.decode codec (Codec.encode codec v)
let roundtrip_json codec v = Codec.decode_json codec (Codec.encode_json codec v)

let test_archive_primitives () =
  let w = Archive.writer () in
  Archive.write_varint w 0;
  Archive.write_varint w (-1);
  Archive.write_varint w max_int;
  Archive.write_varint w min_int;
  Archive.write_float w 3.14;
  Archive.write_string w "héllo";
  Archive.write_bool w true;
  Archive.write_int64 w (-123456789012345L);
  let b = Archive.contents w in
  let r = Archive.reader ~pos:0 ~len:(Bytes.length b) b in
  Alcotest.(check int) "varint 0" 0 (Archive.read_varint r);
  Alcotest.(check int) "varint -1" (-1) (Archive.read_varint r);
  Alcotest.(check int) "varint max" max_int (Archive.read_varint r);
  Alcotest.(check int) "varint min" min_int (Archive.read_varint r);
  Alcotest.(check (float 0.0)) "float" 3.14 (Archive.read_float r);
  Alcotest.(check string) "string" "héllo" (Archive.read_string r);
  Alcotest.(check bool) "bool" true (Archive.read_bool r);
  Alcotest.(check int64) "int64" (-123456789012345L) (Archive.read_int64 r);
  Alcotest.(check bool) "consumed" true (Archive.at_end r)

let test_archive_truncated () =
  let w = Archive.writer () in
  Archive.write_string w "hello";
  let full = Archive.contents w in
  let cut = Bytes.sub full 0 (Bytes.length full - 2) in
  Alcotest.(check bool) "raises Corrupt" true
    (match Archive.read_string (Archive.reader ~pos:0 ~len:(Bytes.length cut) cut) with
    | (_ : string) -> false
    | exception Archive.Corrupt _ -> true)

(* The wire bytes of floats and int64s are pinned against the output of
   the original byte-at-a-time encoder: little-endian IEEE-754 bits, the
   sign of zero, a NaN payload and a denormal included.  Each decodes back
   to the same bits. *)
let test_archive_number_golden () =
  let floats =
    [ 0.0; -0.0; Int64.float_of_bits 0x7FF800000000BEEFL; Float.infinity; Float.neg_infinity;
      Int64.float_of_bits 0x000FFFFFFFFFFFFFL; Int64.float_of_bits 1L ]
  and ints = [ Int64.min_int; Int64.max_int; -123456789012345L ] in
  let w = Archive.writer () in
  List.iter (Archive.write_float w) floats;
  List.iter (Archive.write_int64 w) ints;
  let b = Archive.contents w in
  let golden =
    String.concat ""
      [
        (* 0.0, -0.0, NaN with payload 0xBEEF *)
        "\x00\x00\x00\x00\x00\x00\x00\x00";
        "\x00\x00\x00\x00\x00\x00\x00\x80";
        "\xef\xbe\x00\x00\x00\x00\xf8\x7f";
        (* +inf, -inf, the largest denormal, the smallest denormal *)
        "\x00\x00\x00\x00\x00\x00\xf0\x7f";
        "\x00\x00\x00\x00\x00\x00\xf0\xff";
        "\xff\xff\xff\xff\xff\xff\x0f\x00";
        "\x01\x00\x00\x00\x00\x00\x00\x00";
        (* Int64.min_int, Int64.max_int, -123456789012345 *)
        "\x00\x00\x00\x00\x00\x00\x00\x80";
        "\xff\xff\xff\xff\xff\xff\xff\x7f";
        "\x87\x20\xf2\x79\xb7\x8f\xff\xff";
      ]
  in
  Alcotest.(check string) "wire bytes" golden (Bytes.to_string b);
  let r = Archive.reader ~pos:0 ~len:(Bytes.length b) b in
  List.iter
    (fun f ->
      Alcotest.(check int64) "float bits" (Int64.bits_of_float f)
        (Int64.bits_of_float (Archive.read_float r)))
    floats;
  List.iter (fun i -> Alcotest.(check int64) "int64" i (Archive.read_int64 r)) ints;
  Alcotest.(check bool) "consumed" true (Archive.at_end r)

(* A bounded reader decodes a part of a larger buffer in place and never
   reads past its window. *)
let test_archive_bounded_reader () =
  let codec = Serde.Codec.(pair int string) in
  let part = Serde.Codec.encode codec (7, "seven") in
  let n = Bytes.length part in
  let buf = Bytes.cat (Bytes.of_string "head") (Bytes.cat part (Bytes.of_string "tail")) in
  Alcotest.(check (pair int string)) "part in place" (7, "seven")
    (Serde.Codec.decode_sub codec buf ~pos:4 ~len:n);
  Alcotest.(check bool) "short window is corrupt" true
    (match Serde.Codec.decode_sub codec buf ~pos:4 ~len:(n - 1) with
    | _ -> false
    | exception Archive.Corrupt _ -> true);
  Alcotest.(check bool) "long window has trailing bytes" true
    (match Serde.Codec.decode_sub codec buf ~pos:4 ~len:(n + 1) with
    | _ -> false
    | exception Archive.Corrupt _ -> true);
  Alcotest.(check bool) "window outside the buffer" true
    (match Archive.reader ~pos:4 ~len:(Bytes.length buf) buf with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A length-prefixed field is read with one copy out of the archive: a
   64 KiB field allocates one 64 KiB buffer, not two.  The bound reads
   [read_bytes]'s contract as well: the same bytes, and a short buffer
   is still [Corrupt]. *)
let test_archive_read_bytes_one_copy () =
  let field = Bytes.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let b = Archive.build (fun w -> Archive.write_bytes w field) in
  let r = Archive.reader ~pos:0 ~len:(Bytes.length b) b in
  (* [Gc.counters]' minor count lags until the next minor collection, so
     a collection inside the window would count words allocated before
     it; empty the minor heap at both ends so the difference is exact *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let got = Archive.read_bytes r in
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "same bytes" true (Bytes.equal got field);
  Alcotest.(check bool)
    (Printf.sprintf "one copy: %.0f bytes allocated for a 65536-byte field" allocated)
    true
    (allocated >= 65536. && allocated < 2. *. 65536.);
  Alcotest.(check bool) "truncated field is corrupt" true
    (match Archive.read_bytes (Archive.reader ~pos:0 ~len:(Bytes.length b - 1) b) with
    | _ -> false
    | exception Archive.Corrupt _ -> true)

let test_codec_combinators () =
  let c = Codec.(list (pair int string)) in
  let v = [ (1, "a"); (-5, "bb"); (0, "") ] in
  Alcotest.(check bool) "binary roundtrip" true (roundtrip c v = v);
  Alcotest.(check bool) "json roundtrip" true (roundtrip_json c v = v)

let test_codec_option_result () =
  let c = Codec.(option (result int string)) in
  List.iter
    (fun v -> Alcotest.(check bool) "roundtrip" true (roundtrip c v = v))
    [ None; Some (Ok 42); Some (Error "boom") ]

let test_codec_hashtbl () =
  let c = Codec.(hashtbl string int) in
  let tbl = Hashtbl.create 8 in
  Hashtbl.replace tbl "x" 1;
  Hashtbl.replace tbl "y" 2;
  let back = roundtrip c tbl in
  Alcotest.(check (option int)) "x" (Some 1) (Hashtbl.find_opt back "x");
  Alcotest.(check (option int)) "y" (Some 2) (Hashtbl.find_opt back "y");
  Alcotest.(check int) "size" 2 (Hashtbl.length back)

let test_codec_conv () =
  (* A user-defined record, Cereal-style. *)
  let point = Codec.conv ~name:"point" (fun (x, y) -> (x, y)) (fun p -> p) Codec.(pair float float) in
  Alcotest.(check bool) "conv roundtrip" true (roundtrip point (1.5, -2.5) = (1.5, -2.5))

(* [decode_sub] reuses one cursor: a decode nested inside another gets its
   own, a Corrupt decode releases it, and a plain decode allocates none. *)
let test_codec_decode_sub_cursor () =
  let nested =
    Codec.conv ~name:"nested"
      (fun x -> Bytes.to_string (Codec.encode Codec.int x))
      (fun s -> Codec.decode Codec.int (Bytes.of_string s))
      Codec.string
  in
  let codec = Codec.(pair nested int) in
  let b = Codec.encode codec (5, 9) in
  let buf = Bytes.cat (Bytes.of_string "xy") b in
  Alcotest.(check (pair int int)) "nested decode" (5, 9)
    (Codec.decode_sub codec buf ~pos:2 ~len:(Bytes.length b));
  Alcotest.(check bool) "corrupt window" true
    (match Codec.decode_sub codec buf ~pos:2 ~len:(Bytes.length b - 1) with
    | _ -> false
    | exception Archive.Corrupt _ -> true);
  Alcotest.(check (pair int int)) "decode after corrupt" (5, 9)
    (Codec.decode_sub codec buf ~pos:2 ~len:(Bytes.length b));
  (* a float decode allocates its boxed result (2 words) and, with a
     cursor per call, 4 more *)
  let one = Codec.encode Codec.float 0.25 in
  let n = Bytes.length one in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Codec.decode_sub Codec.float one ~pos:0 ~len:n : float)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "no cursor per decode (%.0f words)" words) true
    (words < 2_500.0)

(* Every int, length and tag of an archive is a varint, so its read must
   not allocate. *)
let test_archive_read_varint_no_alloc () =
  let w = Archive.writer () in
  for i = 0 to 999 do
    Archive.write_varint w ((i * 1_234_567) - 500_000_000)
  done;
  let b = Archive.contents w in
  let r = Archive.reader ~pos:0 ~len:(Bytes.length b) b in
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    sum := !sum + Archive.read_varint r
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "values" (1_234_567 * 499_500 - 500_000_000_000) !sum;
  Alcotest.(check bool) "consumed" true (Archive.at_end r);
  Alcotest.(check (float 0.0)) "minor words for 1,000 reads" 0.0 words

let test_codec_trailing_bytes () =
  let b = Codec.encode Codec.int 7 in
  let padded = Bytes.cat b (Bytes.of_string "x") in
  Alcotest.(check bool) "trailing bytes rejected" true
    (match Codec.decode Codec.int padded with
    | (_ : int) -> false
    | exception Archive.Corrupt _ -> true)

let test_json_print_parse () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.0);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Str "q\"uote\n" ]);
        ("c", Json.Obj []);
      ]
  in
  Alcotest.(check bool) "print/parse" true (Json.equal v (Json.parse (Json.to_string v)))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" s) true
        (match Json.parse s with
        | (_ : Json.t) -> false
        | exception Json.Parse_error _ -> true))
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_numbers () =
  (match Json.parse "-1.5e3" with
  | Json.Num f -> Alcotest.(check (float 0.0)) "scientific" (-1500.0) f
  | _ -> Alcotest.fail "expected number");
  Alcotest.(check string) "integral printing" "42" (Json.to_string (Json.Num 42.0))

let test_json_non_finite () =
  List.iter
    (fun (name, f) ->
      let text = Json.to_string (Json.Obj [ ("x", Json.Num f) ]) in
      Alcotest.(check bool) (name ^ " reads back as null") true
        (Json.equal (Json.parse text) (Json.Obj [ ("x", Json.Null) ])))
    [ ("nan", Float.nan); ("infinity", Float.infinity); ("neg_infinity", Float.neg_infinity) ]

(* ---------- checkpoint snapshot wire format (lib/ckpt) ---------- *)

let snap epoch rank payload = { Ckpt.Snapshot.epoch; rank; payload = Bytes.of_string payload }

let check_snap name expected actual =
  let open Ckpt.Snapshot in
  Alcotest.(check int) (name ^ ": epoch") expected.epoch actual.epoch;
  Alcotest.(check int) (name ^ ": rank") expected.rank actual.rank;
  Alcotest.(check string) (name ^ ": payload")
    (Bytes.to_string expected.payload)
    (Bytes.to_string actual.payload)

let rejects_corrupt name b =
  Alcotest.(check bool) name true
    (match Ckpt.Snapshot.decode b with
    | (_ : Ckpt.Snapshot.t) -> false
    | exception Archive.Corrupt _ -> true)

let test_snapshot_roundtrip () =
  List.iter
    (fun s ->
      let name = Printf.sprintf "epoch %d rank %d" s.Ckpt.Snapshot.epoch s.Ckpt.Snapshot.rank in
      check_snap name s (Ckpt.Snapshot.decode (Ckpt.Snapshot.encode s)))
    [ snap 0 0 ""; snap 3 1 "payload bytes"; snap 4096 63 (String.make 2000 '\xab') ]

let test_snapshot_rejects_corrupt () =
  let b = Ckpt.Snapshot.encode (snap 5 2 "some state") in
  (* Truncation anywhere — inside the header or inside the payload — is
     caught, as are trailing bytes and a clobbered magic tag. *)
  for len = 0 to Bytes.length b - 1 do
    rejects_corrupt (Printf.sprintf "truncated to %d" len) (Bytes.sub b 0 len)
  done;
  rejects_corrupt "trailing byte" (Bytes.cat b (Bytes.make 1 'x'));
  let bad_magic = Bytes.copy b in
  Bytes.set bad_magic 0 '\x00';
  rejects_corrupt "bad magic" bad_magic;
  (* Hand-built archives with the right magic (0x434b) and one negative
     header field each. *)
  let header epoch rank =
    Archive.build (fun w ->
        List.iter (Archive.write_varint w) [ 0x434b; epoch; rank ];
        Archive.write_bytes w Bytes.empty)
  in
  check_snap "hand-built header accepted" (snap 2 3 "") (Ckpt.Snapshot.decode (header 2 3));
  rejects_corrupt "negative epoch" (header (-1) 0);
  rejects_corrupt "negative rank" (header 0 (-1))

let test_snapshot_wrong_epoch () =
  let b = Ckpt.Snapshot.encode (snap 7 1 "state") in
  check_snap "matching epoch accepted" (snap 7 1 "state")
    (Ckpt.Snapshot.decode_expect ~epoch:7 b);
  Alcotest.(check bool) "wrong epoch rejected" true
    (match Ckpt.Snapshot.decode_expect ~epoch:8 b with
    | (_ : Ckpt.Snapshot.t) -> false
    | exception Ckpt.Snapshot.Wrong_epoch { expected = 8; got = 7 } -> true)

let prop_snapshot_roundtrip =
  Tutil.qtest "snapshot header roundtrip"
    QCheck2.Gen.(triple nat nat (string_size (int_bound 64)))
    (fun (epoch, rank, payload) ->
      let s = snap epoch rank payload in
      let back = Ckpt.Snapshot.decode (Ckpt.Snapshot.encode s) in
      back.Ckpt.Snapshot.epoch = epoch && back.rank = rank
      && Bytes.to_string back.payload = payload)

let prop_codec_int_list =
  Tutil.qtest "codec int list roundtrip" QCheck2.Gen.(list int) (fun l ->
      roundtrip Codec.(list int) l = l)

let prop_codec_string_json =
  Tutil.qtest "codec string json roundtrip"
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_bound 50))
    (fun s -> roundtrip_json Codec.string s = s)

let prop_codec_float =
  Tutil.qtest "codec float binary exact" QCheck2.Gen.float (fun f ->
      let back = roundtrip Codec.float f in
      Int64.equal (Int64.bits_of_float back) (Int64.bits_of_float f))

let prop_json_string_escapes =
  Tutil.qtest "json string escaping" QCheck2.Gen.(string_size (int_bound 30)) (fun s ->
      match Json.parse (Json.to_string (Json.Str s)) with Json.Str s' -> s' = s | _ -> false)

(* ---------- sequence codecs: wire layout and corrupt headers ---------- *)

(* Sizes 0, 1 and 1000; ints reach the negatives, floats the values whose
   bits a careless round trip loses. *)
let seq_gen elt = QCheck2.Gen.(oneofl [ 0; 1; 1000 ] >>= fun n -> array_size (return n) elt)

let float_gen =
  QCheck2.Gen.(
    frequency
      [ (4, float); (1, oneofl [ Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity ]) ])

let float_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* [array c] and [vec c] put exactly the bytes of [list c] on the wire:
   the element count as a varint, then the elements. *)
let wire_compatible elt a =
  let as_list = Codec.encode (Codec.list elt) (Array.to_list a) in
  Bytes.equal (Codec.encode (Codec.array elt) a) as_list
  && Bytes.equal (Codec.encode (Codec.vec elt) (Ds.Vec.of_array a)) as_list

let prop_array_int_wire =
  Tutil.qtest ~count:60 "codec array/vec int: list wire layout, exact roundtrip"
    (seq_gen QCheck2.Gen.int) (fun a ->
      wire_compatible Codec.int a
      && roundtrip Codec.(array int) a = a
      && Ds.Vec.to_array (roundtrip Codec.(vec int) (Ds.Vec.of_array a)) = a)

let prop_array_float_wire =
  Tutil.qtest ~count:60 "codec array/vec float: list wire layout, exact roundtrip"
    (seq_gen float_gen) (fun a ->
      wire_compatible Codec.float a
      && float_bits_equal (roundtrip Codec.(array float) a) a
      && float_bits_equal (Ds.Vec.to_array (roundtrip Codec.(vec float) (Ds.Vec.of_array a))) a)

(* A length header of 2^40 in front of three bytes: a decoder that
   pre-sizes its result from the header must reject it as corrupt, not
   try to allocate. *)
let huge_header_over_three_bytes () =
  let w = Archive.writer () in
  Archive.write_varint w (1 lsl 40);
  Archive.write_byte w '\002';
  Archive.write_byte w '\004';
  Archive.write_byte w '\006';
  Archive.contents w

let rejects_header name codec =
  Alcotest.(check bool) name true
    (match Codec.decode codec (huge_header_over_three_bytes ()) with
    | _ -> false
    | exception Archive.Corrupt _ -> true)

let test_sequence_corrupt_length () =
  rejects_header "array int" Codec.(array int);
  rejects_header "array float" Codec.(array float);
  rejects_header "vec (int * float)" Codec.(vec (pair int float))

let test_sequence_zero_byte_elements () =
  let a = Array.make 5 () in
  Alcotest.(check int) "five units encode to the header alone" 1
    (Bytes.length (Codec.encode Codec.(array unit) a));
  Alcotest.(check int) "array unit" 5 (Array.length (roundtrip Codec.(array unit) a));
  Alcotest.(check int) "vec unit" 5
    (Ds.Vec.length (roundtrip Codec.(vec unit) (Ds.Vec.of_array a)));
  Alcotest.(check int) "array (unit * unit)" 3
    (Array.length (roundtrip Codec.(array (pair unit unit)) (Array.make 3 ((), ()))))

let suite =
  [
    Alcotest.test_case "archive primitives" `Quick test_archive_primitives;
    Alcotest.test_case "archive truncation" `Quick test_archive_truncated;
    Alcotest.test_case "archive number golden bytes" `Quick test_archive_number_golden;
    Alcotest.test_case "archive bounded reader" `Quick test_archive_bounded_reader;
    Alcotest.test_case "archive read_bytes copies once" `Quick test_archive_read_bytes_one_copy;
    Alcotest.test_case "archive read_varint allocates nothing" `Quick
      test_archive_read_varint_no_alloc;
    Alcotest.test_case "codec combinators" `Quick test_codec_combinators;
    Alcotest.test_case "codec option/result" `Quick test_codec_option_result;
    Alcotest.test_case "codec hashtbl" `Quick test_codec_hashtbl;
    Alcotest.test_case "codec conv" `Quick test_codec_conv;
    Alcotest.test_case "codec trailing bytes" `Quick test_codec_trailing_bytes;
    Alcotest.test_case "codec decode_sub cursor reuse" `Quick test_codec_decode_sub_cursor;
    Alcotest.test_case "json print/parse" `Quick test_json_print_parse;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json non-finite numbers print as null" `Quick test_json_non_finite;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot rejects corrupt buffers" `Quick
      test_snapshot_rejects_corrupt;
    Alcotest.test_case "snapshot wrong-epoch guard" `Quick test_snapshot_wrong_epoch;
    prop_snapshot_roundtrip;
    prop_codec_int_list;
    prop_codec_string_json;
    prop_codec_float;
    prop_json_string_escapes;
    prop_array_int_wire;
    prop_array_float_wire;
    Alcotest.test_case "sequence codecs reject a corrupt length header" `Quick
      test_sequence_corrupt_length;
    Alcotest.test_case "sequence codecs decode zero-byte elements" `Quick
      test_sequence_zero_byte_elements;
  ]
