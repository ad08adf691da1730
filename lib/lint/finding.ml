open Refnet_json

type rule =
  | View_boundary
  | Determinism
  | Referee_totality
  | Bit_accounting
  | Exn_escape
  | Parallel_race
  | Blocking_call
  | Unused_export
  | Stale_suppression
  | Parse_error

let all_rules =
  [
    View_boundary; Determinism; Referee_totality; Bit_accounting;
    Exn_escape; Parallel_race; Blocking_call; Unused_export; Stale_suppression; Parse_error;
  ]

let rule_name = function
  | View_boundary -> "view-boundary"
  | Determinism -> "determinism"
  | Referee_totality -> "referee-totality"
  | Bit_accounting -> "bit-accounting"
  | Exn_escape -> "exn-escape"
  | Parallel_race -> "parallel-race"
  | Blocking_call -> "blocking-call"
  | Unused_export -> "unused-export"
  | Stale_suppression -> "stale-suppression"
  | Parse_error -> "parse-error"

let rule_of_name name = List.find_opt (fun r -> rule_name r = name) all_rules

(* One hop of a call-graph witness: how the analysis got from the
   finding's anchor to the defect (a raise site, a syscall, a mutation).
   The last step's note names the defect itself. *)
type step = { s_file : string; s_line : int; s_fn : string; s_note : string }

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
  trace : step list;
}

let compare a b =
  Stdlib.compare
    (a.file, a.line, a.col, rule_name a.rule, a.message)
    (b.file, b.line, b.col, rule_name b.rule, b.message)

let to_string f =
  let head = Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col (rule_name f.rule) f.message in
  match f.trace with
  | [] -> head
  | steps ->
    head
    ^ String.concat ""
        (List.map
           (fun s -> Printf.sprintf "\n    %s:%d: %s (%s)" s.s_file s.s_line s.s_fn s.s_note)
           steps)

let step_to_json s =
  Printf.sprintf {|{"file":%s,"fn":%s,"line":%d,"note":%s}|} (Json.string s.s_file)
    (Json.string s.s_fn) s.s_line (Json.string s.s_note)

let to_json f =
  Printf.sprintf {|{"col":%d,"file":%s,"line":%d,"message":%s,"rule":%s,"trace":[%s]}|} f.col
    (Json.string f.file) f.line (Json.string f.message)
    (Json.string (rule_name f.rule))
    (String.concat "," (List.map step_to_json f.trace))

(* Schema v2 (frozen): {"findings":[...],"version":2} with optional
   trailing "wall_ms" and "files" when the caller reports timing.  v1
   had no "trace" field and no timing; every consumer bumped together
   in the PR that introduced the deep passes. *)
let report_json ?wall_ms ?files findings =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (to_json f))
    findings;
  Buffer.add_string b "],\"version\":2";
  (match wall_ms with
  | Some ms -> Buffer.add_string b (Printf.sprintf ",\"wall_ms\":%d" ms)
  | None -> ());
  (match files with
  | Some n -> Buffer.add_string b (Printf.sprintf ",\"files\":%d" n)
  | None -> ());
  Buffer.add_string b "}";
  Buffer.contents b
