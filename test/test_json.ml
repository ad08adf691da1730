(* The one JSON reader and escaper: values, escapes, rejections, and the
   escaper/reader round trip every JSON writer relies on. *)

open Refnet_json

(* Arrays and newlines, as in BENCHMARK.json, parse too. *)
let test_parse_arrays () =
  let module R = Json in
  let fields =
    R.parse "{\n  \"a\": [1, 2.5, \"x\", [], {\"k\": [null, true]}],\n  \"b\": [ ]\n}\n"
  in
  Alcotest.(check bool) "nested arrays" true
    (fields
    = [
        ( "a",
          R.Arr
            [ R.Int 1; R.Float 2.5; R.Str "x"; R.Arr []; R.Obj [ ("k", R.Arr [ R.Null; R.Bool true ]) ] ]
        );
        ("b", R.Arr []);
      ]);
  List.iter
    (fun line ->
      match R.parse line with
      | _ -> Alcotest.failf "accepted %S" line
      | exception R.Error _ -> ())
    [ "[1, 2]"; "{\"a\": [1,}"; "{\"a\": [1 2]}"; "{\"a\": [1" ]

let label line =
  match Json.parse line with
  | [ ("label", Json.Str s) ] -> s
  | _ -> Alcotest.failf "no label in %S" line

(* The escapes only the lint baseline's reader used to take: \b, \f and
   non-ASCII \uXXXX, decoded to UTF-8 (a surrogate pair to 4 bytes). *)
let test_escapes () =
  Alcotest.(check string) "short escapes" "\"\\/\n\t\r\b\012"
    (label {|{"label":"\"\\\/\n\t\r\b\f"}|});
  Alcotest.(check string) "\\u00e9 is UTF-8" "caf\xc3\xa9" (label {|{"label":"caf\u00e9"}|});
  Alcotest.(check string) "raw UTF-8 is copied" "caf\xc3\xa9" (label "{\"label\":\"caf\xc3\xa9\"}");
  Alcotest.(check string) "\\u20ac" "\xe2\x82\xac" (label {|{"label":"\u20AC"}|});
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" (label {|{"label":"\ud83d\ude00"}|});
  Alcotest.(check string) "control byte" "\x01" (label {|{"label":"\u0001"}|});
  (* A trace line carrying them aggregates under the decoded label. *)
  let r = Core.Report.create () in
  Core.Report.ingest_line r {|{"event":"span_begin","label":"a\bb\fc\u00e9","n":3}|};
  Core.Report.ingest_line r
    {|{"event":"local","id":0,"bits":5,"id_reads":0,"n_reads":0,"deg_reads":0,"neighbor_reads":0}|};
  Core.Report.ingest_line r {|{"event":"span_end","label":"a\bb\fc\u00e9","n":3}|};
  Alcotest.(check int) "trace lines accepted" 3 (Core.Report.events r);
  let json = Core.Report.to_json r in
  let sub = Json.string "a\bb\012c\xc3\xa9" in
  let n = String.length json and k = String.length sub in
  let rec has i = i + k <= n && (String.sub json i k = sub || has (i + 1)) in
  Alcotest.(check bool) "decoded label reported" true (has 0)

let test_numbers () =
  Alcotest.(check bool) "ints and floats kept apart" true
    (Json.parse {|{"a":-3,"b":-3.0,"c":1e3,"d":0}|}
    = [ ("a", Json.Int (-3)); ("b", Json.Float (-3.)); ("c", Json.Float 1000.); ("d", Json.Int 0) ])

(* What either of the two readers it replaces refused, it refuses. *)
let test_rejects () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | _ -> Alcotest.failf "accepted %S" doc
      | exception Json.Error _ -> ())
    [
      "";
      "   ";
      "[1, 2";
      "null";
      "{\"a\": [1,}";
      "{\"a\": 1} x";
      "{\"a\": 1}}";
      "{\"a\" 1}";
      "{\"a\": 1,}";
      "{a: 1}";
      "{\"a\": tru}";
      "{\"a\": nul}";
      "{\"a\": \"x}";
      "{\"a\": \"\\x\"}";
      "{\"a\": \"\\u12\"}";
      "{\"a\": \"\\u12g4\"}";
      "{\"a\": \"\\ud83d\"}";
      "{\"a\": \"\\ude00\"}";
      "{\"a\": \"\\ud83d\\u0041\"}";
      "{\"a\": 99999999999999999999}";
      "{\"a\": 1.2.3}";
      "{\"a\": -}";
      "{\"a\": }";
    ]

let test_escaper () =
  Alcotest.(check string) "frozen escapes" {|"a\"b\\c\nd\u0001\u001f/é"|}
    (Json.string "a\"b\\c\nd\x01\x1f/é")

let round_trip =
  QCheck2.Test.make ~name:"parse reads back what string escapes" ~count:500
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck2.Gen.(string_size ~gen:char (int_range 0 40))
    (fun s -> Json.parse ("{\"k\":" ^ Json.string s ^ "}") = [ ("k", Json.Str s) ])

let () =
  Alcotest.run "json"
    [
      ( "json",
        [
          Alcotest.test_case "parses arrays" `Quick test_parse_arrays;
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "rejects malformed documents" `Quick test_rejects;
          Alcotest.test_case "escaper" `Quick test_escaper;
        ] );
      ("round trip", [ QCheck_alcotest.to_alcotest round_trip ]);
    ]
