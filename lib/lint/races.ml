(* Domain-race detector.

   Any closure handed to the [Parallel] pool runs concurrently on up to
   64 domains; a write through a variable the closure *captured* (free
   in the closure) makes transcripts width-dependent unless the write
   is provably partitioned.  The partition heuristic is the repo's own
   idiom: an indexed write [arr.(i) <- v] whose index expression
   mentions an identifier bound inside the closure (the item index, the
   domain slot, or a local derived from them — e.g. the simulator's
   [let id = order.(i) in views.(id - 1) <- ...]) touches a per-item /
   per-slot cell and is exempt.

   Flagged mutations on captured state:
     - [r := v], [incr r], [decr r]
     - [arr.(i) <- v] / [Array.set] / [Bytes.set] (and the unsafe
       variants) with a captured receiver and an index that mentions no
       closure-bound identifier
     - [Hashtbl.]/[Buffer.]/[Queue.]/[Stack.] mutating operations on a
       captured structure, and [Flight.record]/[note]/[reset] on a
       captured recorder
     - [r.field <- v] on a captured record

   Reads are never flagged (racy reads of frozen inputs are the normal
   case), [Atomic] operations are never flagged (they are the sanctioned
   escape hatch), and [Policy.race_ok] files (the pool itself) are
   skipped — all documented in DESIGN.md §16. *)

open Parsetree

let entries =
  [
    "init"; "map_array"; "iter_range"; "submit"; "run_batch"; "submit_batch";
    "submit_chunks";
  ]

let flatten lid = try Longident.flatten lid with _ -> []

let last_two path =
  match List.rev path with
  | f :: m :: _ -> (m, f)
  | [ f ] -> ("", f)
  | [] -> ("", "")

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* All identifiers bound by patterns anywhere inside [e] — parameters
   and locals alike, scope-insensitively (a variable bound in a sibling
   branch counts as bound: a deliberate false-negative edge, see
   DESIGN.md §16). *)
let bound_idents e =
  let acc = Hashtbl.create 16 in
  let iter = Ast_iterator.default_iterator in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } -> Hashtbl.replace acc txt ()
    | Ppat_alias (_, { txt; _ }) -> Hashtbl.replace acc txt ()
    | _ -> ());
    iter.Ast_iterator.pat it p
  in
  let it = { iter with Ast_iterator.pat } in
  it.Ast_iterator.expr it e;
  acc

let mentions_bound bound e =
  let found = ref false in
  let iter = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt = Lident n; _ } when Hashtbl.mem bound n -> found := true
    | _ -> ());
    iter.Ast_iterator.expr it e
  in
  let it = { iter with Ast_iterator.expr } in
  it.Ast_iterator.expr it e;
  !found

let rec render_target e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> String.concat "." (flatten txt)
  | Pexp_field (r, { txt; _ }) ->
    render_target r ^ "." ^ String.concat "." (flatten txt)
  | _ -> "<expr>"

let mutating_module_ops =
  [
    ("Hashtbl", [ "replace"; "add"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Buffer", [ "add_char"; "add_string"; "add_bytes"; "add_subbytes"; "add_substring";
                 "add_buffer"; "clear"; "reset"; "truncate" ]);
    ("Queue", [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    (* one writer by contract (flight.mli): no lock, no atomic *)
    ("Flight", [ "record"; "note"; "reset" ]);
  ]

let indexed_setters =
  [ ("Array", "set"); ("Array", "unsafe_set"); ("Bytes", "set"); ("Bytes", "unsafe_set") ]

(* Scan one closure body handed to [Parallel.entry]; every finding is
   anchored at the mutation, with a two-step trace back through the
   submission site. *)
let scan_closure ~file ~fn ~entry ~(entry_loc : Location.t) body acc =
  let bound = bound_idents body in
  let e_line, _ = pos_of entry_loc in
  let emit (loc : Location.t) target what =
    let line, col = pos_of loc in
    acc :=
      {
        Finding.rule = Finding.Parallel_race;
        file;
        line;
        col;
        message =
          Printf.sprintf
            "%s on captured %s inside a closure handed to Parallel.%s: the write is not \
             provably domain- or item-indexed, so transcripts may depend on the pool width \
             — partition by the item index / domain slot, use Atomic, or move the write \
             outside the parallel region"
            what target entry;
        trace =
          [
            {
              Finding.s_file = file;
              s_line = e_line;
              s_fn = fn;
              s_note = Printf.sprintf "closure submitted to Parallel.%s" entry;
            };
            {
              Finding.s_file = file;
              s_line = line;
              s_fn = fn;
              s_note = Printf.sprintf "%s on captured %s" what target;
            };
          ];
      }
      :: !acc
  in
  let iter = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_setfield (recv, _, _) when not (mentions_bound bound recv) ->
      emit e.pexp_loc (render_target recv) "record-field write"
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let mf = last_two (flatten txt) in
      let positional =
        List.filter_map
          (fun (l, a) -> match l with Asttypes.Nolabel -> Some a | _ -> None)
          args
      in
      match (mf, positional) with
      | (("" | "Stdlib"), ":="), lhs :: _ when not (mentions_bound bound lhs) ->
        emit e.pexp_loc (render_target lhs) "ref assignment"
      | (("" | "Stdlib"), ("incr" | "decr")), lhs :: _ when not (mentions_bound bound lhs) ->
        emit e.pexp_loc (render_target lhs) "ref update"
      | (m, f), recv :: idx :: _
        when List.mem (m, f) indexed_setters
             && (not (mentions_bound bound recv))
             && not (mentions_bound bound idx) ->
        emit e.pexp_loc (render_target recv) (Printf.sprintf "unpartitioned %s.%s" m f)
      | (m, f), recv :: _
        when (match List.assoc_opt m mutating_module_ops with
             | Some ops -> List.mem f ops
             | None -> false)
             && not (mentions_bound bound recv) ->
        emit e.pexp_loc (render_target recv) (Printf.sprintf "%s.%s" m f)
      | _ -> ())
    | _ -> ());
    iter.Ast_iterator.expr it e
  in
  let it = { iter with Ast_iterator.expr } in
  it.Ast_iterator.expr it body

let rec is_syntactic_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) -> is_syntactic_function e
  | _ -> false

let check g sources =
  let acc = ref [] in
  List.iter
    (fun (file, ast) ->
      if not (Policy.matches file Policy.race_ok) then begin
        (* nearest enclosing binding name, for trace display *)
        let current = ref "(file)" in
        let iter = Ast_iterator.default_iterator in
        let value_binding it vb =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } ->
            let saved = !current in
            current := txt;
            iter.Ast_iterator.value_binding it vb;
            current := saved
          | _ -> iter.Ast_iterator.value_binding it vb
        in
        let expr it e =
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when match last_two (flatten txt) with
                 | "Parallel", f -> List.mem f entries
                 | _ -> false -> (
            let entry = match last_two (flatten txt) with _, f -> f in
            List.iter
              (fun (_, a) ->
                if is_syntactic_function a then
                  scan_closure ~file ~fn:!current ~entry ~entry_loc:e.pexp_loc a acc
                else
                  match a.pexp_desc with
                  | Pexp_ident { txt = Lident n; _ } -> (
                    match Callgraph.resolve_in g ~file [ n ] with
                    | Some d when is_syntactic_function d.Callgraph.d_body ->
                      scan_closure ~file
                        ~fn:(String.concat "." d.Callgraph.d_path)
                        ~entry ~entry_loc:e.pexp_loc d.Callgraph.d_body acc
                    | _ -> ())
                  | _ -> ())
              args)
          | _ -> ());
          iter.Ast_iterator.expr it e
        in
        let it = { iter with Ast_iterator.expr; value_binding } in
        it.Ast_iterator.structure it ast
      end)
    sources;
  List.sort_uniq Finding.compare !acc
