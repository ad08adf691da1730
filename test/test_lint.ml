(* The lint fixture corpus: every rule has a bad twin that must fire
   (and fire only that rule) and a good twin that must stay silent —
   including the deep call-graph rules, whose twins run through
   [Driver.deep_sources] so the harness can place them at
   policy-relevant paths.  Also freezes the suppression semantics, the
   --json schema (v2) and the baseline diff. *)

let fixture name = Filename.concat "lint_fixtures" name

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let rule_names findings =
  List.map (fun f -> Lint.Finding.rule_name f.Lint.Finding.rule) findings

(* [bad fixture rule n] checks the fixture yields exactly [n] findings,
   all of [rule]. *)
let bad name rule n () =
  let findings = Lint.Driver.lint_file (fixture name) in
  Alcotest.(check (list string))
    (name ^ " fires exactly its rule")
    (List.init n (fun _ -> rule))
    (rule_names findings)

let good name () =
  let findings = Lint.Driver.lint_file (fixture name) in
  Alcotest.(check (list string)) (name ^ " is clean") [] (rule_names findings)

(* ---------- suppressions ---------- *)

let suppressed_file_is_clean () = good "suppressed.ml" ()

let unknown_rule_is_reported () =
  match Lint.Driver.lint_file (fixture "bad_suppression.ml") with
  | [ f ] ->
    Alcotest.(check string) "rule" "parse-error" (Lint.Finding.rule_name f.Lint.Finding.rule);
    Alcotest.(check bool)
      "message names the bogus rule" true
      (contains f.Lint.Finding.message {|"no-such-rule"|})
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let suppression_is_rule_specific () =
  (* An allow for the wrong rule must not silence the finding. *)
  let source = "let pick n = Random.int n (* lint: allow referee-totality -- wrong rule *)\n" in
  let findings = Lint.Driver.lint_source ~file:"wrong_rule.ml" source in
  Alcotest.(check (list string)) "still fires" [ "determinism" ] (rule_names findings)

(* ---------- path-gated allowlists ---------- *)

(* The same source fires or stays silent purely by where it claims to
   live: syscalls and clock reads are policy exceptions for the serve
   transport, not repo-wide permissions. *)
let socket_rule_is_path_gated () =
  let source = "let fd () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0\n" in
  Alcotest.(check (list string))
    "fires outside the transport" [ "determinism" ]
    (rule_names (Lint.Driver.lint_source ~file:"lib/core/rogue.ml" source));
  Alcotest.(check (list string))
    "allowed in the serve daemon" []
    (rule_names (Lint.Driver.lint_source ~file:"lib/serve/daemon.ml" source));
  Alcotest.(check (list string))
    "allowed in the serve client" []
    (rule_names (Lint.Driver.lint_source ~file:"lib/serve/client.ml" source));
  (* The serve *engine* may read the (injectable) clock but still may
     not issue syscalls: transport-free means transport-free. *)
  Alcotest.(check (list string))
    "engine may not open sockets" [ "determinism" ]
    (rule_names (Lint.Driver.lint_source ~file:"lib/serve/engine.ml" source))

let clock_rule_covers_serve_edges () =
  let source = "let now () = Unix.gettimeofday ()\n" in
  Alcotest.(check (list string))
    "fires in core" [ "determinism" ]
    (rule_names (Lint.Driver.lint_source ~file:"lib/core/rogue.ml" source));
  List.iter
    (fun file ->
      Alcotest.(check (list string))
        (file ^ " may read the clock")
        []
        (rule_names (Lint.Driver.lint_source ~file source)))
    [ "lib/serve/engine.ml"; "lib/serve/daemon.ml"; "lib/serve/selftest.ml" ]

(* ---------- malformed input ---------- *)

let parse_error_is_a_finding () =
  match Lint.Driver.lint_file (fixture "bad_parse.ml") with
  | [ f ] -> Alcotest.(check string) "rule" "parse-error" (Lint.Finding.rule_name f.Lint.Finding.rule)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let unreadable_file_is_a_finding () =
  match Lint.Driver.lint_file (fixture "does_not_exist.ml") with
  | [ f ] -> Alcotest.(check string) "rule" "parse-error" (Lint.Finding.rule_name f.Lint.Finding.rule)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ---------- deep fixtures (call-graph rules) ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run one fixture through the deep pass under a chosen path, so the
   path-gated policies (blocking roots, poll points, unix allowlists)
   see what they would see in the real tree. *)
let deep_fixture ?(as_path = "lib/core/fixture.ml") name =
  Lint.Driver.deep_sources [ (as_path, read_file (fixture name)) ]

let deep_rules d = rule_names d.Lint.Driver.deep_findings

let deep_exn_escape_fires () =
  let d = deep_fixture "deep_bad_exn_escape.ml" in
  Alcotest.(check (list string)) "exactly one escape" [ "exn-escape" ] (deep_rules d);
  Alcotest.(check int) "two of three roots proven" 2 d.Lint.Driver.deep_roots_proven;
  Alcotest.(check int) "three referee roots" 3 d.Lint.Driver.deep_roots_total;
  let f = List.hd d.Lint.Driver.deep_findings in
  Alcotest.(check int) "trace walks the three-call chain" 3 (List.length f.Lint.Finding.trace);
  let last = List.nth f.Lint.Finding.trace 2 in
  Alcotest.(check bool)
    "witness ends at the raise site" true
    (contains last.Lint.Finding.s_note "raise Fixture.Overflow")

(* [Protocol.guarded]'s arguments are referee roots like
   [Protocol.streaming]'s: its guard absorbs only the malformed class. *)
let deep_guarded_escape_fires () =
  let d = deep_fixture "deep_bad_guarded_escape.ml" in
  Alcotest.(check (list string)) "exactly one escape" [ "exn-escape" ] (deep_rules d);
  Alcotest.(check int) "two of three roots proven" 2 d.Lint.Driver.deep_roots_proven;
  Alcotest.(check int) "three referee roots" 3 d.Lint.Driver.deep_roots_total;
  let f = List.hd d.Lint.Driver.deep_findings in
  Alcotest.(check bool) "names Not_found" true (contains f.Lint.Finding.message "Not_found")

(* [Protocol.sealed]'s arguments are referee roots too: a sealed absorb
   may raise [Message.Malformed] (the guard marks the sender), never
   [Not_found]. *)
let deep_sealed_escape_fires () =
  let d = deep_fixture "deep_bad_sealed_escape.ml" in
  Alcotest.(check (list string)) "exactly one escape" [ "exn-escape" ] (deep_rules d);
  Alcotest.(check int) "two of three roots proven" 2 d.Lint.Driver.deep_roots_proven;
  Alcotest.(check int) "three referee roots" 3 d.Lint.Driver.deep_roots_total;
  let f = List.hd d.Lint.Driver.deep_findings in
  Alcotest.(check bool) "names Not_found" true (contains f.Lint.Finding.message "Not_found")

let deep_sealed_malformed_is_clean () =
  let d = deep_fixture "deep_good_sealed_malformed.ml" in
  Alcotest.(check (list string)) "clean" [] (deep_rules d);
  Alcotest.(check int) "all roots proven" 3 d.Lint.Driver.deep_roots_proven;
  Alcotest.(check int) "three referee roots" 3 d.Lint.Driver.deep_roots_total

(* Exceptions are keyed by module-qualified name: the wire codec's
   [Byte_io.Malformed] is not the [Message.Malformed] the guards
   absorb. *)
let deep_foreign_malformed_fires () =
  let d = deep_fixture "deep_bad_foreign_malformed.ml" in
  Alcotest.(check (list string)) "exactly one escape" [ "exn-escape" ] (deep_rules d);
  Alcotest.(check int) "two of three roots proven" 2 d.Lint.Driver.deep_roots_proven;
  let f = List.hd d.Lint.Driver.deep_findings in
  Alcotest.(check bool) "names Byte_io.Malformed" true
    (contains f.Lint.Finding.message "exception Byte_io.Malformed")

let deep_exn_absorbed_is_clean () =
  let d = deep_fixture "deep_good_exn_absorbed.ml" in
  Alcotest.(check (list string)) "clean" [] (deep_rules d);
  Alcotest.(check int) "all roots proven" 3 d.Lint.Driver.deep_roots_proven;
  Alcotest.(check int) "three referee roots" 3 d.Lint.Driver.deep_roots_total

let deep_race_fires () =
  let d = deep_fixture "deep_bad_parallel_race.ml" in
  Alcotest.(check (list string))
    "both unpartitioned writes flagged"
    [ "parallel-race"; "parallel-race" ]
    (deep_rules d);
  List.iter
    (fun f ->
      Alcotest.(check int)
        "trace: submission + write" 2
        (List.length f.Lint.Finding.trace))
    d.Lint.Driver.deep_findings

(* A closure handed to [Parallel.submit] runs on the pool like one
   handed to [iter_range]. *)
let deep_submit_race_fires () =
  let d = deep_fixture "deep_bad_submit_race.ml" in
  Alcotest.(check (list string)) "the captured ref write" [ "parallel-race" ] (deep_rules d);
  let f = List.hd d.Lint.Driver.deep_findings in
  Alcotest.(check bool) "names the entry" true (contains f.Lint.Finding.message "Parallel.submit")

let deep_race_indexed_is_clean () =
  Alcotest.(check (list string))
    "item-indexed writes are clean" []
    (deep_rules (deep_fixture "deep_good_parallel_race.ml"))

(* A flight recorder has one writer: recording from the pool races. *)
let deep_flight_race_fires () =
  let d = deep_fixture "deep_bad_flight_race.ml" in
  Alcotest.(check (list string)) "the pool-side record" [ "parallel-race" ] (deep_rules d);
  let f = List.hd d.Lint.Driver.deep_findings in
  Alcotest.(check bool) "names Flight.record" true (contains f.Lint.Finding.message "Flight.record")

let deep_flight_after_join_is_clean () =
  Alcotest.(check (list string))
    "recording after the join is clean" []
    (deep_rules (deep_fixture "deep_good_flight_race.ml"))

let deep_blocking_fires () =
  let d = deep_fixture ~as_path:"lib/serve/daemon.ml" "deep_bad_blocking.ml" in
  Alcotest.(check (list string))
    "tier A + tier B"
    [ "blocking-call"; "blocking-call" ]
    (deep_rules d);
  match d.Lint.Driver.deep_findings with
  | [ a; b ] ->
    Alcotest.(check bool) "sleepf named" true (contains a.Lint.Finding.message "Unix.sleepf");
    Alcotest.(check bool) "read named" true (contains b.Lint.Finding.message "Unix.read")
  | _ -> Alcotest.fail "unreachable: two findings checked above"

let deep_blocking_poll_point_is_clean () =
  Alcotest.(check (list string))
    "descriptor I/O at the poll point is clean" []
    (deep_rules (deep_fixture ~as_path:"lib/serve/daemon.ml" "deep_good_blocking.ml"))

let deep_blocking_is_root_gated () =
  (* The same syscalls outside the serve daemon are not reachable from
     any blocking root, so only the shallow determinism rule speaks. *)
  let rules = deep_rules (deep_fixture ~as_path:"lib/core/worker.ml" "deep_bad_blocking.ml") in
  Alcotest.(check bool) "no blocking-call without the serve root" false
    (List.mem "blocking-call" rules)

let deep_paths_reads_files () =
  let d = Lint.Driver.deep_paths [ fixture "deep_bad_exn_escape.ml" ] in
  Alcotest.(check (list string)) "same engine over files" [ "exn-escape" ] (deep_rules d);
  Alcotest.(check int) "scanned one file" 1 (List.length d.Lint.Driver.deep_files)

(* A deep run over part of the tree judges that part against the whole
   program under the working directory, and reports only what lies in
   the part: [A.f]'s caller is outside [lib/core], and the dead allow
   in [lib/serve] is not [lib/core]'s to report. *)
let deep_paths_judges_part_against_program () =
  let root = Filename.concat (Sys.getcwd ()) "deep_paths_tree" in
  let write rel text =
    let path = Filename.concat root rel in
    let rec mkdirs d =
      if not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdirs (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  in
  write "lib/core/a.ml" "let f x = x + 1\n";
  write "lib/core/a.mli" "val f : int -> int\n";
  write "lib/serve/b.ml"
    "let g = A.f 2\nlet unused = 1 (* lint: allow determinism -- nothing here *)\n";
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      let core = Lint.Driver.deep_paths [ "lib/core" ] in
      Alcotest.(check (list string)) "lib/core: the caller outside still counts" []
        (deep_rules core);
      Alcotest.(check int) "the whole program is scanned" 3 (List.length core.Lint.Driver.deep_files);
      Alcotest.(check (list string)) "an absolute path names the same files"
        core.Lint.Driver.deep_files
        (Lint.Driver.deep_paths [ Filename.concat root "lib/core" ]).Lint.Driver.deep_files;
      let serve = Lint.Driver.deep_paths [ "./lib/serve/" ] in
      Alcotest.(check (list (pair string string)))
        "lib/serve: its own dead allow"
        [ ("stale-suppression", "lib/serve/b.ml") ]
        (List.map
           (fun f -> (Lint.Finding.rule_name f.Lint.Finding.rule, f.Lint.Finding.file))
           serve.Lint.Driver.deep_findings))

let deep_trace_step_suppression () =
  (* A deep finding is suppressed by a comment at any trace step, so
     the justification lives at the raise site — and a justified
     suppression still counts as a proof obligation reviewed, so the
     root stays proven. *)
  let source =
    "exception Overflow\n\
     let bump n =\n\
    \  (* lint: allow exn-escape -- fixture justifies at the raise site *)\n\
    \  if n > 7 then raise Overflow else n + 1\n\
     let protocol () =\n\
    \  Protocol.streaming ~init:(fun _ -> 0)\n\
    \    ~absorb:(fun acc v -> bump acc + v)\n\
    \    ~finish:(fun acc -> acc)\n"
  in
  let d = Lint.Driver.deep_sources [ ("lib/core/t.ml", source) ] in
  Alcotest.(check (list string)) "suppressed at the trace step" [] (deep_rules d);
  Alcotest.(check int) "justified roots count as proven" 3 d.Lint.Driver.deep_roots_proven

(* ---------- unused exports ---------- *)

(* The fixture pair at a lib path, plus a caller file that uses
   [called] and [Nested.reached]. *)
let export_sources =
  [
    ("lib/core/exported.ml", read_file (fixture "deep_unused_export.ml"));
    ("lib/core/exported.mli", read_file (fixture "deep_unused_export.mli"));
    ("bin/caller.ml", "let () = ignore (Exported.called 1 + Exported.Nested.reached ())\n");
  ]

let export_findings d =
  List.filter_map
    (fun f ->
      if f.Lint.Finding.rule = Lint.Finding.Unused_export then
        Some (f.Lint.Finding.file, f.Lint.Finding.line)
      else None)
    d.Lint.Driver.deep_findings

let deep_unused_export_fires () =
  let d = Lint.Driver.deep_sources ~oracles:[ ("Exported", "oracle") ] export_sources in
  Alcotest.(check (list (pair string int)))
    "helper and dead, not called, reached or the allowlisted oracle"
    [ ("lib/core/exported.mli", 8); ("lib/core/exported.mli", 11) ]
    (export_findings d);
  Alcotest.(check (list (pair string int)))
    "without the allowlist the oracle is dead too"
    [ ("lib/core/exported.mli", 8); ("lib/core/exported.mli", 11); ("lib/core/exported.mli", 14) ]
    (export_findings (Lint.Driver.deep_sources ~oracles:[] export_sources))

let deep_stale_oracle_is_reported () =
  let d =
    Lint.Driver.deep_sources
      ~oracles:[ ("Exported", "oracle"); ("Exported", "gone"); ("Missing", "f") ]
      export_sources
  in
  let stale =
    List.filter
      (fun f -> f.Lint.Finding.file = "lib/lint/policy.ml")
      d.Lint.Driver.deep_findings
  in
  Alcotest.(check (list bool)) "one finding per entry naming no export" [ true; true ]
    (List.map2
       (fun f name -> contains f.Lint.Finding.message (" lists " ^ name ^ ","))
       stale [ "Exported.gone"; "Missing.f" ])

(* ---------- stale suppressions (deep only) ---------- *)

let stale_suppression_is_reported () =
  let source = "let unused = 1 (* lint: allow determinism -- nothing here *)\n" in
  let d = Lint.Driver.deep_sources [ ("lib/core/t.ml", source) ] in
  Alcotest.(check (list string)) "dead allow flagged" [ "stale-suppression" ] (deep_rules d)

let stale_suppression_has_its_own_allow () =
  let source =
    "(* lint: allow stale-suppression -- kept deliberately *)\n\
     let unused = 1 (* lint: allow determinism -- nothing here *)\n"
  in
  Alcotest.(check (list string)) "justified dead allow is clean" []
    (deep_rules (Lint.Driver.deep_sources [ ("lib/core/t.ml", source) ]))

let used_suppression_is_not_stale () =
  let source = "let r = Random.bits () (* lint: allow determinism -- fixture *)\n" in
  Alcotest.(check (list string)) "live allow is clean" []
    (deep_rules (Lint.Driver.deep_sources [ ("lib/core/t.ml", source) ]))

let shallow_pass_ignores_staleness () =
  (* Shallow CI runs on subsets of the tree, where an allow may be
     legitimately unused; only the whole-repo deep pass judges it. *)
  let source = "let unused = 1 (* lint: allow determinism -- nothing here *)\n" in
  Alcotest.(check (list string)) "shallow stays quiet" []
    (rule_names (Lint.Driver.lint_source ~file:"lib/core/t.ml" source))

(* ---------- JSON schema (frozen, v2) ---------- *)

let json_empty_report () =
  Alcotest.(check string) "empty" {|{"findings":[],"version":2}|} (Lint.Finding.report_json [])

let json_schema_is_stable () =
  let f =
    {
      Lint.Finding.rule = Lint.Finding.Bit_accounting;
      file = "lib/x.ml";
      line = 3;
      col = 7;
      message = {|raw "bytes"|};
      trace = [];
    }
  in
  Alcotest.(check string) "one finding"
    {|{"findings":[{"col":7,"file":"lib/x.ml","line":3,"message":"raw \"bytes\"","rule":"bit-accounting","trace":[]}],"version":2}|}
    (Lint.Finding.report_json [ f ])

let json_trace_is_stable () =
  let f =
    {
      Lint.Finding.rule = Lint.Finding.Exn_escape;
      file = "lib/a.ml";
      line = 3;
      col = 2;
      message = "boom";
      trace =
        [ { Lint.Finding.s_file = "lib/a.ml"; s_line = 9; s_fn = "A.f"; s_note = "raise Overflow" } ];
    }
  in
  Alcotest.(check string) "trace array"
    {|{"findings":[{"col":2,"file":"lib/a.ml","line":3,"message":"boom","rule":"exn-escape","trace":[{"file":"lib/a.ml","fn":"A.f","line":9,"note":"raise Overflow"}]}],"version":2}|}
    (Lint.Finding.report_json [ f ])

let json_meta_fields_are_stable () =
  Alcotest.(check string) "wall_ms and files"
    {|{"findings":[],"version":2,"wall_ms":5,"files":2}|}
    (Lint.Finding.report_json ~wall_ms:5 ~files:2 [])

let findings_are_sorted () =
  let _, findings = Lint.Driver.lint_paths [ "lint_fixtures" ] in
  Alcotest.(check bool) "non-empty" true (findings <> []);
  Alcotest.(check bool) "sorted" true
    (List.sort Lint.Finding.compare findings = findings)

(* ---------- baseline diff ---------- *)

let mk_finding ?(line = 3) ?(message = "boom") () =
  {
    Lint.Finding.rule = Lint.Finding.Exn_escape;
    file = "lib/a.ml";
    line;
    col = 2;
    message;
    trace = [];
  }

let baseline_round_trip () =
  let f = mk_finding () in
  let g = mk_finding ~line:9 ~message:"other" () in
  let report = Lint.Finding.report_json [ f; g ] in
  match Lint.Baseline.of_report report with
  | Error e -> Alcotest.failf "of_report: %s" e
  | Ok base ->
    Alcotest.(check int) "self-diff is empty" 0
      (List.length (Lint.Baseline.diff ~baseline:base [ f; g ]));
    Alcotest.(check int) "line shifts do not trip the gate" 0
      (List.length (Lint.Baseline.diff ~baseline:base [ mk_finding ~line:99 (); g ]));
    Alcotest.(check int) "a second copy of a known finding is new" 1
      (List.length
         (Lint.Baseline.diff ~baseline:base [ f; mk_finding ~line:50 (); g ]));
    Alcotest.(check int) "empty baseline keeps everything" 2
      (List.length (Lint.Baseline.diff ~baseline:[] [ f; g ]))

let baseline_unreadable_is_an_error () =
  match Lint.Baseline.load (fixture "no_such_baseline.json") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on a missing baseline"

let baseline_malformed_is_an_error () =
  List.iter
    (fun doc ->
      match Lint.Baseline.of_report doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected Error on %s" doc)
    [ {|{"findings": 3}|}; {|[1, 2|}; {|{"version": 2}|}; "" ]

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "bad view-boundary" `Quick
            (bad "bad_view_boundary.ml" "view-boundary" 4);
          Alcotest.test_case "good view-boundary" `Quick (good "good_view_boundary.ml");
          Alcotest.test_case "bad determinism" `Quick (bad "bad_determinism.ml" "determinism" 4);
          Alcotest.test_case "good determinism" `Quick (good "good_determinism.ml");
          Alcotest.test_case "bad referee-totality" `Quick
            (bad "bad_referee_totality.ml" "referee-totality" 3);
          Alcotest.test_case "good referee-totality" `Quick (good "good_referee_totality.ml");
          Alcotest.test_case "bad bit-accounting" `Quick
            (bad "bad_bit_accounting.ml" "bit-accounting" 2);
          Alcotest.test_case "good bit-accounting" `Quick (good "good_bit_accounting.ml");
          Alcotest.test_case "bad unix socket" `Quick (bad "bad_unix_socket.ml" "determinism" 3);
          Alcotest.test_case "good unix socket" `Quick (good "good_unix_socket.ml");
        ] );
      ( "deep fixtures",
        [
          Alcotest.test_case "bad exn-escape" `Quick deep_exn_escape_fires;
          Alcotest.test_case "good exn-escape (absorbed)" `Quick deep_exn_absorbed_is_clean;
          Alcotest.test_case "bad exn-escape (guarded absorb)" `Quick deep_guarded_escape_fires;
          Alcotest.test_case "bad exn-escape (sealed absorb)" `Quick deep_sealed_escape_fires;
          Alcotest.test_case "good exn-escape (sealed absorb, Malformed)" `Quick
            deep_sealed_malformed_is_clean;
          Alcotest.test_case "bad exn-escape (foreign Malformed)" `Quick
            deep_foreign_malformed_fires;
          Alcotest.test_case "bad parallel-race" `Quick deep_race_fires;
          Alcotest.test_case "bad parallel-race (submit)" `Quick deep_submit_race_fires;
          Alcotest.test_case "good parallel-race (indexed)" `Quick deep_race_indexed_is_clean;
          Alcotest.test_case "part judged against the program" `Quick
            deep_paths_judges_part_against_program;
          Alcotest.test_case "bad parallel-race (flight)" `Quick deep_flight_race_fires;
          Alcotest.test_case "good parallel-race (flight after join)" `Quick
            deep_flight_after_join_is_clean;
          Alcotest.test_case "bad blocking-call" `Quick deep_blocking_fires;
          Alcotest.test_case "good blocking-call (poll point)" `Quick
            deep_blocking_poll_point_is_clean;
          Alcotest.test_case "blocking root is path-gated" `Quick deep_blocking_is_root_gated;
          Alcotest.test_case "deep_paths reads files" `Quick deep_paths_reads_files;
          Alcotest.test_case "suppression covers trace steps" `Quick deep_trace_step_suppression;
          Alcotest.test_case "bad/good unused-export" `Quick deep_unused_export_fires;
          Alcotest.test_case "stale test-oracle entry" `Quick deep_stale_oracle_is_reported;
        ] );
      ( "policy gating",
        [
          Alcotest.test_case "syscalls confined to transport" `Quick socket_rule_is_path_gated;
          Alcotest.test_case "clock reads at serve edges" `Quick clock_rule_covers_serve_edges;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "both forms silence" `Quick suppressed_file_is_clean;
          Alcotest.test_case "unknown rule is reported" `Quick unknown_rule_is_reported;
          Alcotest.test_case "rule-specific" `Quick suppression_is_rule_specific;
          Alcotest.test_case "stale allow is reported (deep)" `Quick stale_suppression_is_reported;
          Alcotest.test_case "stale allow has its own allow" `Quick
            stale_suppression_has_its_own_allow;
          Alcotest.test_case "used allow is not stale" `Quick used_suppression_is_not_stale;
          Alcotest.test_case "shallow ignores staleness" `Quick shallow_pass_ignores_staleness;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "parse error is a finding" `Quick parse_error_is_a_finding;
          Alcotest.test_case "unreadable file is a finding" `Quick unreadable_file_is_a_finding;
        ] );
      ( "report",
        [
          Alcotest.test_case "empty JSON report" `Quick json_empty_report;
          Alcotest.test_case "JSON schema frozen" `Quick json_schema_is_stable;
          Alcotest.test_case "JSON trace frozen" `Quick json_trace_is_stable;
          Alcotest.test_case "JSON meta fields frozen" `Quick json_meta_fields_are_stable;
          Alcotest.test_case "findings sorted" `Quick findings_are_sorted;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round trip" `Quick baseline_round_trip;
          Alcotest.test_case "unreadable is an error" `Quick baseline_unreadable_is_an_error;
          Alcotest.test_case "malformed is an error" `Quick baseline_malformed_is_an_error;
        ] );
    ]
