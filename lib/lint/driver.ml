let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

(* ---------- suppressions ---------- *)

(* Built by concatenation so this very literal does not register as a
   (malformed) suppression when the linter scans its own source. *)
let marker = "(* lint:" ^ " allow "

let find_sub s sub from =
  let ls = String.length s and lb = String.length sub in
  let rec go i = if i + lb > ls then None else if String.sub s i lb = sub then Some i else go (i + 1) in
  go from

(* One suppression comment.  [sp_standalone] comments (alone on their
   line) also cover the line below; [sp_used] is shared between both
   covered lines so the stale pass sees one comment, not two. *)
type supp = {
  sp_line : int;
  sp_rule : Finding.rule;
  sp_standalone : bool;
  sp_used : bool ref;
}

let covers supp ~line ~rule =
  supp.sp_rule = rule
  && (supp.sp_line = line || (supp.sp_standalone && supp.sp_line + 1 = line))

(* Scans raw source lines for suppression comments.  Returns the
   suppressions and any findings for comments naming an unknown rule. *)
let scan_suppressions ~file source =
  let lines = String.split_on_char '\n' source in
  let supps = ref [] in
  let errors = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match find_sub line marker 0 with
      | None -> ()
      | Some at ->
        let rest = String.sub line (at + String.length marker) (String.length line - at - String.length marker) in
        let stop = ref 0 in
        while
          !stop < String.length rest
          && (match rest.[!stop] with 'a' .. 'z' | '-' -> true | _ -> false)
        do
          incr stop
        done;
        let name = String.sub rest 0 !stop in
        (match Finding.rule_of_name name with
        | Some rule ->
          supps :=
            {
              sp_line = lineno;
              sp_rule = rule;
              sp_standalone = String.trim (String.sub line 0 at) = "";
              sp_used = ref false;
            }
            :: !supps
        | None ->
          errors :=
            {
              Finding.rule = Finding.Parse_error;
              file;
              line = lineno;
              col = at;
              message = Printf.sprintf "suppression names unknown lint rule %S" name;
              trace = [];
            }
            :: !errors))
    lines;
  (List.rev !supps, List.rev !errors)

(* ---------- parsing ---------- *)

let parse_error_finding ~file ?(line = 1) ?(col = 0) message =
  { Finding.rule = Finding.Parse_error; file; line; col; message; trace = [] }

let finding_of_loc ~file (loc : Location.t) message =
  let p = loc.Location.loc_start in
  parse_error_finding ~file ~line:(max 1 p.pos_lnum) ~col:(max 0 (p.pos_cnum - p.pos_bol)) message

let parse_with parser ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match parser lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error err ->
    Error (finding_of_loc ~file (Syntaxerr.location_of_error err) "syntax error")
  | exception Lexer.Error (_, loc) -> Error (finding_of_loc ~file loc "lexer error")
  | exception exn ->
    Error (parse_error_finding ~file (Printf.sprintf "parse failed: %s" (Printexc.to_string exn)))

(* ---------- shared load: parse each file exactly once ---------- *)

type loaded = {
  ld_file : string;
  ld_ast : Parsetree.structure option;
  ld_supps : supp list;
  ld_pre : Finding.t list;  (* parse-error / unknown-rule findings *)
}

let load ~file source =
  let file = normalize file in
  match parse_with Parse.implementation ~file source with
  | Error finding -> { ld_file = file; ld_ast = None; ld_supps = []; ld_pre = [ finding ] }
  | Ok ast ->
    let supps, comment_errors = scan_suppressions ~file source in
    { ld_file = file; ld_ast = Some ast; ld_supps = supps; ld_pre = comment_errors }

(* A finding is suppressed when a comment covers its anchor *or any step
   of its call-graph trace* — so a deep finding can be justified at the
   raise/syscall/mutation site it actually points at, not only at the
   referee root where it is anchored.  Matching marks the comment used
   for the stale pass. *)
let suppressed supp_of_file f =
  let hit file line =
    List.exists
      (fun sp ->
        if covers sp ~line ~rule:f.Finding.rule then begin
          sp.sp_used := true;
          true
        end
        else false)
      (supp_of_file file)
  in
  (* evaluate all sites so every matching comment is marked used *)
  let anchor = hit f.Finding.file f.Finding.line in
  let steps =
    List.fold_left
      (fun acc s -> hit s.Finding.s_file s.Finding.s_line || acc)
      false f.Finding.trace
  in
  anchor || steps

(* ---------- shallow pipeline ---------- *)

let shallow_findings ld =
  match ld.ld_ast with
  | None -> ld.ld_pre
  | Some ast ->
    let raw = Rules.check ~file:ld.ld_file ast in
    let kept =
      List.filter
        (fun f ->
          not
            (List.exists
               (fun sp -> covers sp ~line:f.Finding.line ~rule:f.Finding.rule)
               ld.ld_supps))
        raw
    in
    List.sort Finding.compare (ld.ld_pre @ kept)

let lint_source ~file source = shallow_findings (load ~file source)

let lint_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> lint_source ~file:path source
  | exception Sys_error msg ->
    [ parse_error_finding ~file:(normalize path) (Printf.sprintf "cannot read file: %s" msg) ]

let rec collect acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if entry = "_build" || (String.length entry > 0 && entry.[0] = '.') then acc
           else collect acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* The sorted [.ml] files under [paths], skipping [_build] and
   dot-directories; the per-file rules concern implementations only. *)
let collect_files paths =
  List.sort String.compare (List.fold_left collect [] paths)

let lint_paths paths =
  let files = collect_files paths in
  let findings = List.concat_map lint_file files in
  (files, List.sort Finding.compare findings)

(* ---------- deep pipeline ---------- *)

type deep = {
  deep_files : string list;
  deep_findings : Finding.t list;
  deep_roots_proven : int;
  deep_roots_total : int;
  deep_wall_ms : int;
}

(* Spelled by concatenation for the same reason as [marker]. *)
let stale_hint = "(* lint:" ^ " allow stale-suppression -- reason *)"

let parse_interface ~file source =
  let file = normalize file in
  Result.map (fun sg -> (file, sg)) (parse_with Parse.interface ~file source)

let deep_sources ?(oracles = Policy.test_oracles) sources =
  let t0 = Unix.gettimeofday () in
  let mlis, mls = List.partition (fun (file, _) -> Filename.check_suffix file ".mli") sources in
  let loaded = List.map (fun (file, source) -> load ~file source) mls in
  let interfaces = List.map (fun (file, source) -> parse_interface ~file source) mlis in
  let parsed =
    List.filter_map (fun ld -> Option.map (fun a -> (ld.ld_file, a)) ld.ld_ast) loaded
  in
  let g = Callgraph.build parsed in
  let exn_findings, _raw_proven, total = Exnflow.check g in
  let race_findings = Races.check g parsed in
  let blocking_findings = Blocking.check g in
  (* with no interface scanned there is no export to judge, and the
     allowlist is not checked against an empty set *)
  let export_findings =
    match List.filter_map Result.to_option interfaces with
    | [] -> []
    | sigs -> Exports.check ~oracles g sigs
  in
  let shallow =
    List.concat_map
      (fun ld ->
        match ld.ld_ast with None -> [] | Some ast -> Rules.check ~file:ld.ld_file ast)
      loaded
  in
  let supp_map = Hashtbl.create (List.length loaded) in
  List.iter (fun ld -> Hashtbl.replace supp_map ld.ld_file ld.ld_supps) loaded;
  let supp_of_file file = Option.value ~default:[] (Hashtbl.find_opt supp_map file) in
  let kept =
    List.filter
      (fun f -> not (suppressed supp_of_file f))
      (shallow @ exn_findings @ race_findings @ blocking_findings @ export_findings)
  in
  (* Stale suppressions: a comment no finding matched in this run.  The
     shallow CLI never reports these (a shallow run of one file cannot
     know what the deep pass would match); the deep pass sees the whole
     repo, so an unused comment there really is dead.  [stale-suppression]
     comments themselves are exempt — they exist to *be* unused. *)
  let stale =
    List.concat_map
      (fun ld ->
        List.filter_map
          (fun sp ->
            if !(sp.sp_used) || sp.sp_rule = Finding.Stale_suppression then None
            else
              Some
                {
                  Finding.rule = Finding.Stale_suppression;
                  file = ld.ld_file;
                  line = sp.sp_line;
                  col = 0;
                  message =
                    Printf.sprintf
                      "suppression for %s matched no finding in the deep pass; dead \
                       suppressions hide future regressions — delete it or justify with %s"
                      (Finding.rule_name sp.sp_rule) stale_hint;
                  trace = [];
                })
          ld.ld_supps)
      loaded
  in
  let stale_kept = List.filter (fun f -> not (suppressed supp_of_file f)) stale in
  let pre =
    List.concat_map (fun ld -> ld.ld_pre) loaded
    @ List.filter_map (function Error f -> Some f | Ok _ -> None) interfaces
  in
  let findings = List.sort Finding.compare (pre @ kept @ stale_kept) in
  (* A root is proven when no escape finding against it survived the
     suppression filter: a justified per-line suppression is a reviewed
     proof obligation, so it counts.  Escape findings anchor at the
     root, so distinct surviving anchors = unproven roots. *)
  let unproven_roots =
    List.sort_uniq compare
      (List.filter_map
         (fun f ->
           if f.Finding.rule = Finding.Exn_escape then
             Some (f.Finding.file, f.Finding.line, f.Finding.col)
           else None)
         kept)
  in
  {
    deep_files = List.map (fun (file, _) -> normalize file) sources;
    deep_findings = findings;
    deep_roots_proven = total - List.length unproven_roots;
    deep_roots_total = total;
    deep_wall_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.);
  }

let program_roots = [ "lib"; "bin"; "bench"; "examples" ]

(* [file] lies under [path]: it is [path] or inside it. *)
let under path file =
  let path = normalize path in
  let path =
    if String.length path > 1 && String.ends_with ~suffix:"/" path then
      String.sub path 0 (String.length path - 1)
    else path
  in
  path = "." || file = path || String.starts_with ~prefix:(path ^ "/") file

let deep_paths paths =
  (* spelled relative to the working directory, as the roots are, so a
     file named both ways is read once *)
  let cwd = Sys.getcwd () ^ "/" in
  let paths =
    List.map
      (fun p ->
        if p ^ "/" = cwd || p = cwd then "."
        else if String.starts_with ~prefix:cwd p then
          String.sub p (String.length cwd) (String.length p - String.length cwd)
        else p)
      paths
  in
  let files =
    List.sort_uniq String.compare
      (List.map normalize (collect_files (program_roots @ paths)))
    |> List.concat_map (fun ml ->
           let mli = ml ^ "i" in
           if Sys.file_exists mli then [ ml; mli ] else [ ml ])
  in
  let sources =
    List.map
      (fun path ->
        match In_channel.with_open_bin path In_channel.input_all with
        | source -> Ok (path, source)
        | exception Sys_error msg -> Error (path, msg))
      files
  in
  let readable = List.filter_map (function Ok s -> Some s | Error _ -> None) sources in
  let unreadable =
    List.filter_map
      (function
        | Ok _ -> None
        | Error (path, msg) ->
          Some (parse_error_finding ~file:path (Printf.sprintf "cannot read file: %s" msg)))
      sources
  in
  let d = deep_sources readable in
  {
    d with
    deep_files = files;
    deep_findings =
      List.filter
        (fun f -> List.exists (fun p -> under p f.Finding.file) paths)
        (List.sort Finding.compare (unreadable @ d.deep_findings));
  }
