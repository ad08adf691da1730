(* Whole-repo, Parsetree-level call graph.

   One shared parse per file (handed in by the driver) is walked once to
   produce, per let-bound function ("def"), the facts the three deep
   passes consume:

     - raise sites, each tagged with the exception keys caught by the
       handlers enclosing it *within the same def*;
     - call/reference sites (every [Pexp_ident], so functions passed as
       values count as edges too — an over-approximation that is the
       sound direction for reachability), likewise tagged with the
       enclosing handler context;
     - [Unix.*] syscall sites for the blocking pass;
     - referee roots: the [~init]/[~absorb]/[~finish] arguments of
       [Protocol.streaming], [Protocol.sealed], [Protocol.sealed_referee]
       and (inside Protocol) [guarded] applications and the
       [r_init]/[r_absorb]/[r_broadcast]/[r_finish] fields of Bcc
       round-stream records.

   Name resolution is by module-qualified longident with a small
   alias tracker ([module G = Refnet_graph.Graph]): a reference
   [A.B.f] resolves by treating [A] (after alias expansion and after
   dropping a dune library-wrapper prefix such as [Core.]) as the
   module of a scanned file and [B.f] as a definition path inside it;
   bare or partially-qualified references resolve inside their own file
   by suffix match, preferring the most top-level candidate.  [open]
   needs no handling under this scheme: an opened module only ever
   shortens the wrapper prefix, which is dropped anyway.

   Known approximations (see DESIGN.md §16): calls through record
   fields, parameters and functor results are opaque (treated as
   raising nothing and calling nothing); a nested let-bound function is
   assumed called by its parent; deferred closures stored in non-referee
   record fields are merged into the def that builds the record. *)

open Parsetree

type raise_site = {
  rs_exn : string;  (* module-qualified key, see [exn_key]; "?" for a re-raised variable *)
  rs_line : int;
  rs_col : int;
  rs_caught : string list;
  rs_catch_all : bool;
}

type call_site = {
  cs_path : string list;  (* as written, after nothing; aliases applied at resolution *)
  cs_line : int;
  cs_col : int;
  cs_caught : string list;
  cs_catch_all : bool;
  mutable cs_resolved : string option;  (* def id, filled by [resolve] *)
}

type unix_site = { us_fn : string; us_line : int; us_col : int }

type def = {
  d_id : string;
  d_file : string;
  d_path : string list;  (* nested-module + nested-binding path within the file *)
  d_line : int;
  d_col : int;
  d_body : expression;
  mutable d_raises : raise_site list;
  mutable d_calls : call_site list;
  mutable d_unix : unix_site list;
}

type root = {
  r_display : string;  (* e.g. "Forest_protocol.reconstruct#absorb" *)
  r_file : string;
  r_line : int;
  r_col : int;
  mutable r_def : string option;  (* def id; [None] if the reference never resolved *)
  r_ref : string list;  (* unresolved ident path for deferred resolution; [] if direct *)
}

type file_info = {
  fi_file : string;
  fi_module : string;
  mutable fi_aliases : (string * string list) list;
  mutable fi_defs : def list;
}

type t = {
  g_defs : (string, def) Hashtbl.t;
  g_files : (string, file_info) Hashtbl.t;
  g_modules : (string, string) Hashtbl.t;  (* module name -> file *)
  mutable g_roots : root list;
}

(* dune library wrappers: [Core.Forest_protocol.x] and
   [Forest_protocol.x] name the same module from inside/outside the
   library, so the wrapper component is transparent for resolution. *)
let library_wrappers =
  [
    "Core"; "Serve"; "Lint"; "Refnet_bits"; "Refnet_bigint"; "Refnet_algebra";
    "Refnet_graph"; "Refnet_sketch";
  ]

let flatten lid = try Longident.flatten lid with _ -> []
let last_comp path = match List.rev path with c :: _ -> Some c | [] -> None

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let def_display d =
  let file_mod = module_of_file d.d_file in
  file_mod ^ "." ^ String.concat "." d.d_path

(* ---------- exception keys ---------- *)

(* The exceptions [Stdlib] predefines, named unqualified everywhere. *)
let predefined_exns =
  [
    "Not_found"; "Failure"; "Invalid_argument"; "Exit"; "End_of_file"; "Division_by_zero";
    "Sys_error"; "Assert_failure"; "Match_failure"; "Out_of_memory"; "Stack_overflow";
    "Sys_blocked_io"; "Undefined_recursive_module";
  ]

(* An exception's key is its module-qualified name, so two exceptions
   that share a last component stay apart: after alias expansion, a
   library-wrapper or [Stdlib] prefix is dropped ([Refnet_bits.Byte_io.
   Malformed] is [Byte_io.Malformed]); an unqualified name is a
   predefined exception, or else one of the raising file's own, keyed
   under the file's module. *)
let exn_key ~file_module ~aliases path =
  let path =
    match path with
    | head :: rest -> (
      match List.assoc_opt head aliases with Some target -> target @ rest | None -> path)
    | [] -> path
  in
  match path with
  | h :: (_ :: _ as t) when h = "Stdlib" || List.mem h library_wrappers ->
    String.concat "." t
  | [ c ] when List.mem c predefined_exns -> c
  | [ c ] -> file_module ^ "." ^ c
  | p -> String.concat "." p

(* ---------- pattern helpers ---------- *)

let rec pattern_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) | Ppat_alias (p, _) -> pattern_name p
  | _ -> None

(* The exception keys a handler case catches; [None] = catch-all.  A
   guarded case is conservatively treated as catching nothing: the
   guard may decline at runtime, so nothing is provably absorbed. *)
let rec pattern_exn_keys ~key p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> None
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_exn_keys ~key p
  | Ppat_construct ({ txt; _ }, _) -> (
    match flatten txt with [] -> Some [] | path -> Some [ key path ])
  | Ppat_or (a, b) -> (
    match (pattern_exn_keys ~key a, pattern_exn_keys ~key b) with
    | Some ka, Some kb -> Some (ka @ kb)
    | _ -> None)
  | _ -> Some []

let caught_of_cases ~key ~exception_only cases =
  List.fold_left
    (fun (keys, all) case ->
      let pat =
        if exception_only then
          match case.pc_lhs.ppat_desc with Ppat_exception p -> Some p | _ -> None
        else
          match case.pc_lhs.ppat_desc with
          | Ppat_exception p -> Some p
          | _ -> Some case.pc_lhs
      in
      match pat with
      | None -> (keys, all)
      | Some _ when case.pc_guard <> None -> (keys, all)
      | Some p -> (
        match pattern_exn_keys ~key p with
        | None -> (keys, true)
        | Some ks -> (ks @ keys, all)))
    ([], false) cases

let has_exception_case cases =
  List.exists
    (fun c -> match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
    cases

let rec is_syntactic_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) -> is_syntactic_function e
  | _ -> false

(* ---------- the walk ---------- *)

type builder = {
  g : t;
  fi : file_info;
  mutable b_def : def;
  mutable b_caught : string list;
  mutable b_catch_all : bool;
  mutable b_mods : string list;  (* nested-module path, outermost first *)
  mutable b_anon : int;
}

let new_def b ~name ~loc body =
  (* Nested defs inherit the parent path via [b_def]; the module chain
     is already a prefix of it, so only prepend modules for top-level
     defs (whose parent is the per-file pseudo-def). *)
  let path =
    if b.b_def.d_path = [ "(file)" ] then b.b_mods @ [ name ]
    else b.b_def.d_path @ [ name ]
  in
  let p = loc.Location.loc_start in
  let d =
    {
      d_id = b.fi.fi_file ^ "::" ^ String.concat "." path;
      d_file = b.fi.fi_file;
      d_path = path;
      d_line = p.Lexing.pos_lnum;
      d_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      d_body = body;
      d_raises = [];
      d_calls = [];
      d_unix = [];
    }
  in
  (* Collisions (same name bound twice at the same level) keep the first
     def and give later ones a uniquified id so facts are not merged. *)
  let d =
    if Hashtbl.mem b.g.g_defs d.d_id then begin
      b.b_anon <- b.b_anon + 1;
      { d with d_id = d.d_id ^ "$" ^ string_of_int b.b_anon }
    end
    else d
  in
  Hashtbl.replace b.g.g_defs d.d_id d;
  b.fi.fi_defs <- d :: b.fi.fi_defs;
  d

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let exn_key_of b path =
  exn_key ~file_module:b.fi.fi_module ~aliases:b.fi.fi_aliases path

let record_raise b loc key =
  let line, col = pos_of loc in
  b.b_def.d_raises <-
    {
      rs_exn = key;
      rs_line = line;
      rs_col = col;
      rs_caught = b.b_caught;
      rs_catch_all = b.b_catch_all;
    }
    :: b.b_def.d_raises

let record_call ?resolved b loc path =
  let line, col = pos_of loc in
  b.b_def.d_calls <-
    {
      cs_path = path;
      cs_line = line;
      cs_col = col;
      cs_caught = b.b_caught;
      cs_catch_all = b.b_catch_all;
      cs_resolved = resolved;
    }
    :: b.b_def.d_calls

let note_ref b loc path =
  (match path with
  | [ "Unix"; f ] ->
    let line, col = pos_of loc in
    b.b_def.d_unix <- { us_fn = f; us_line = line; us_col = col } :: b.b_def.d_unix
  | _ -> ());
  if path <> [] then record_call b loc path

(* Referee-root field names. *)
let round_fields = [ "r_init"; "r_absorb"; "r_broadcast"; "r_finish" ]
let stream_fields = [ "init"; "absorb"; "finish" ]
let deferred_fields = [ "local"; "send"; "receive" ]

let with_def b d f =
  let saved_def = b.b_def and saved_c = b.b_caught and saved_a = b.b_catch_all in
  b.b_def <- d;
  b.b_caught <- [];
  b.b_catch_all <- false;
  f ();
  b.b_def <- saved_def;
  b.b_caught <- saved_c;
  b.b_catch_all <- saved_a

let add_root b ~display ~loc ~ref_path ~def_id =
  let line, col = pos_of loc in
  b.g.g_roots <-
    {
      r_display = display;
      r_file = b.fi.fi_file;
      r_line = line;
      r_col = col;
      r_def = def_id;
      r_ref = ref_path;
    }
    :: b.g.g_roots

let make_iter b =
  let iter = Ast_iterator.default_iterator in
  let walk it e = it.Ast_iterator.expr it e in
  (* A root argument/field: a fun literal becomes an unconnected sub-def
     (it runs when the referee is fed, not when the record is built); an
     ident becomes a deferred reference resolved with the graph. *)
  let root_expr it ~field value =
    let parent = String.concat "." b.b_def.d_path in
    let display =
      Printf.sprintf "%s.%s#%s" (module_of_file b.fi.fi_file) parent field
    in
    if is_syntactic_function value then begin
      b.b_anon <- b.b_anon + 1;
      let d =
        new_def b
          ~name:(Printf.sprintf "#%s.%d" field b.b_anon)
          ~loc:value.pexp_loc value
      in
      with_def b d (fun () -> walk it value);
      add_root b ~display ~loc:value.pexp_loc ~ref_path:[] ~def_id:(Some d.d_id)
    end
    else
      match value.pexp_desc with
      | Pexp_ident { txt; _ } ->
        add_root b ~display ~loc:value.pexp_loc ~ref_path:(flatten txt) ~def_id:None
      | _ ->
        (* an arbitrary expression (e.g. a partial application): walk it
           in the parent — conservative, and rare in practice *)
        walk it value
  in
  let deferred_expr it value =
    if is_syntactic_function value then begin
      b.b_anon <- b.b_anon + 1;
      let d = new_def b ~name:(Printf.sprintf "#local.%d" b.b_anon) ~loc:value.pexp_loc value in
      with_def b d (fun () -> walk it value)
    end
    else walk it value
  in
  let expr it e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> note_ref b e.pexp_loc (flatten txt)
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
      record_raise b e.pexp_loc "Assert_failure"
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let path = flatten txt in
      let mf =
        match List.rev path with
        | f :: m :: _ -> (m, f)
        | [ f ] -> ("", f)
        | [] -> ("", "")
      in
      match mf with
      | (("" | "Stdlib"), ("raise" | "raise_notrace")) -> (
        match args with
        | (_, { pexp_desc = Pexp_construct ({ txt = c; _ }, payload); _ }) :: rest ->
          (match flatten c with
          | [] -> record_raise b e.pexp_loc "?"
          | path -> record_raise b e.pexp_loc (exn_key_of b path));
          Option.iter (walk it) payload;
          List.iter (fun (_, a) -> walk it a) rest
        | args ->
          record_raise b e.pexp_loc "?";
          List.iter (fun (_, a) -> walk it a) args)
      | (("" | "Stdlib"), "failwith") ->
        record_raise b e.pexp_loc "Failure";
        List.iter (fun (_, a) -> walk it a) args
      | (("" | "Stdlib"), "invalid_arg") ->
        record_raise b e.pexp_loc "Invalid_argument";
        List.iter (fun (_, a) -> walk it a) args
      | _, ("streaming" | "guarded" | "sealed" | "sealed_referee") ->
        (* Protocol.streaming / Protocol.sealed / Protocol.sealed_referee
           (and the guard inside Protocol) ~init ~absorb ~finish: each
           labelled argument is a referee root.  The constructor itself
           does not run them, so they do not feed the parent's may-raise
           set. *)
        note_ref b e.pexp_loc path;
        List.iter
          (fun (label, value) ->
            match label with
            | Asttypes.Labelled f when List.mem f stream_fields -> root_expr it ~field:f value
            | _ -> walk it value)
          args
      | _ ->
        note_ref b e.pexp_loc path;
        List.iter (fun (_, a) -> walk it a) args)
    | Pexp_record (fields, base) ->
      let field_names =
        List.filter_map (fun ({ Location.txt; _ }, _) -> last_comp (flatten txt)) fields
      in
      let is_round = List.exists (fun f -> List.mem f round_fields) field_names in
      let stream_count =
        List.length (List.filter (fun f -> List.mem f stream_fields) field_names)
      in
      Option.iter (walk it) base;
      List.iter
        (fun ({ Location.txt; _ }, value) ->
          match last_comp (flatten txt) with
          | Some f when is_round && List.mem f round_fields -> root_expr it ~field:f value
          | Some f when stream_count >= 2 && List.mem f stream_fields ->
            root_expr it ~field:f value
          | Some f when List.mem f deferred_fields -> deferred_expr it value
          | _ -> walk it value)
        fields
    | Pexp_try (body, cases) ->
      let keys, all = caught_of_cases ~key:(exn_key_of b) ~exception_only:false cases in
      let saved_c = b.b_caught and saved_a = b.b_catch_all in
      b.b_caught <- keys @ b.b_caught;
      b.b_catch_all <- b.b_catch_all || all;
      walk it body;
      b.b_caught <- saved_c;
      b.b_catch_all <- saved_a;
      List.iter
        (fun c ->
          Option.iter (walk it) c.pc_guard;
          walk it c.pc_rhs)
        cases
    | Pexp_match (scrut, cases) when has_exception_case cases ->
      let keys, all = caught_of_cases ~key:(exn_key_of b) ~exception_only:true cases in
      let saved_c = b.b_caught and saved_a = b.b_catch_all in
      b.b_caught <- keys @ b.b_caught;
      b.b_catch_all <- b.b_catch_all || all;
      walk it scrut;
      b.b_caught <- saved_c;
      b.b_catch_all <- saved_a;
      List.iter
        (fun c ->
          Option.iter (walk it) c.pc_guard;
          walk it c.pc_rhs)
        cases
    | Pexp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          match pattern_name vb.pvb_pat with
          | Some name when is_syntactic_function vb.pvb_expr ->
            (* a nested function: its own def, assumed called by the
               parent under the handler context of its binding point *)
            let d = new_def b ~name ~loc:vb.pvb_loc vb.pvb_expr in
            record_call ~resolved:d.d_id b vb.pvb_loc [ name ];
            with_def b d (fun () -> walk it vb.pvb_expr)
          | _ -> walk it vb.pvb_expr)
        vbs;
      walk it body
    | _ -> iter.Ast_iterator.expr it e
  in
  let structure_item it si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let name =
            match pattern_name vb.pvb_pat with
            | Some n -> n
            | None ->
              b.b_anon <- b.b_anon + 1;
              Printf.sprintf "#top.%d" b.b_anon
          in
          let d = new_def b ~name ~loc:vb.pvb_loc vb.pvb_expr in
          with_def b d (fun () -> walk it vb.pvb_expr))
        vbs
    | Pstr_module mb -> (
      let name = match mb.pmb_name.Location.txt with Some n -> n | None -> "_" in
      let rec unwrap me =
        match me.pmod_desc with Pmod_constraint (me, _) -> unwrap me | _ -> me
      in
      match (unwrap mb.pmb_expr).pmod_desc with
      | Pmod_ident { txt; _ } -> b.fi.fi_aliases <- (name, flatten txt) :: b.fi.fi_aliases
      | Pmod_structure str ->
        let saved = b.b_mods and saved_def = b.b_def in
        b.b_mods <- b.b_mods @ [ name ];
        (* module-level bindings carry the module path via a pseudo
           parent whose path is the module chain *)
        b.b_def <- { b.b_def with d_path = b.b_mods };
        List.iter (fun si -> it.Ast_iterator.structure_item it si) str;
        b.b_mods <- saved;
        b.b_def <- saved_def
      | _ -> iter.Ast_iterator.structure_item it si)
    | _ -> iter.Ast_iterator.structure_item it si
  in
  { iter with expr; structure_item }

(* ---------- resolution ---------- *)

let suffix_matches path d =
  let lp = List.length path and ld = List.length d.d_path in
  lp <= ld
  &&
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  drop (ld - lp) d.d_path = path

let shortest candidates =
  match candidates with
  | [] -> None
  | c :: rest ->
    Some
      (List.fold_left
         (fun best d -> if List.length d.d_path < List.length best.d_path then d else best)
         c rest)

(* Same-file candidate choice approximates lexical scoping: prefer the
   candidate sharing the longest path prefix with the *caller* (so the
   [go] inside [Nat.compare] resolves to [compare.go], not some other
   def's nested [go]), then the most top-level one. *)
let common_prefix_len a b =
  let rec go n = function
    | x :: xs, y :: ys when x = y -> go (n + 1) (xs, ys)
    | _ -> n
  in
  go 0 (a, b)

let best_candidate ~from candidates =
  match candidates with
  | [] -> None
  | c :: rest ->
    Some
      (List.fold_left
         (fun best d ->
           let pb = common_prefix_len from best.d_path
           and pd = common_prefix_len from d.d_path in
           if pd > pb then d
           else if pd < pb then best
           else if List.length d.d_path < List.length best.d_path then d
           else best)
         c rest)

let resolve_in ?(from = []) g ~file path =
  match Hashtbl.find_opt g.g_files file with
  | None -> None
  | Some fi -> (
    (* alias expansion on the head *)
    let path =
      match path with
      | head :: rest -> (
        match List.assoc_opt head fi.fi_aliases with
        | Some target -> target @ rest
        | None -> path)
      | [] -> path
    in
    (* same-file suffix match first *)
    match best_candidate ~from (List.filter (suffix_matches path) fi.fi_defs) with
    | Some d -> Some d
    | None -> (
      (* cross-file: drop a library wrapper, head names a file module *)
      let path = match path with h :: t when List.mem h library_wrappers -> t | p -> p in
      match path with
      | head :: (_ :: _ as rest) -> (
        match Hashtbl.find_opt g.g_modules head with
        | None -> None
        | Some target_file -> (
          match Hashtbl.find_opt g.g_files target_file with
          | None -> None
          | Some tfi -> shortest (List.filter (suffix_matches rest) tfi.fi_defs)))
      | _ -> None))

let resolve g =
  Hashtbl.iter
    (fun _ d ->
      List.iter
        (fun cs ->
          if cs.cs_resolved = None then
            cs.cs_resolved <-
              Option.map
                (fun t -> t.d_id)
                (resolve_in ~from:d.d_path g ~file:d.d_file cs.cs_path))
        d.d_calls)
    g.g_defs;
  g.g_roots <-
    List.map
      (fun r ->
        if r.r_def = None && r.r_ref <> [] then
          r.r_def <- Option.map (fun d -> d.d_id) (resolve_in g ~file:r.r_file r.r_ref);
        r)
      g.g_roots

(* ---------- build ---------- *)

let build sources =
  let g =
    {
      g_defs = Hashtbl.create 512;
      g_files = Hashtbl.create 64;
      g_modules = Hashtbl.create 64;
      g_roots = [];
    }
  in
  List.iter
    (fun (file, ast) ->
      let fi =
        { fi_file = file; fi_module = module_of_file file; fi_aliases = []; fi_defs = [] }
      in
      Hashtbl.replace g.g_files file fi;
      if not (Hashtbl.mem g.g_modules fi.fi_module) then
        Hashtbl.replace g.g_modules fi.fi_module file;
      let pseudo =
        {
          d_id = file ^ "::(file)";
          d_file = file;
          d_path = [ "(file)" ];
          d_line = 1;
          d_col = 0;
          d_body =
            {
              pexp_desc = Pexp_unreachable;
              pexp_loc = Location.none;
              pexp_loc_stack = [];
              pexp_attributes = [];
            };
          d_raises = [];
          d_calls = [];
          d_unix = [];
        }
      in
      Hashtbl.replace g.g_defs pseudo.d_id pseudo;
      let it =
        make_iter
          { g; fi; b_def = pseudo; b_caught = []; b_catch_all = false; b_mods = []; b_anon = 0 }
      in
      it.Ast_iterator.structure it ast)
    sources;
  resolve g;
  g

let find_def g id = Hashtbl.find_opt g.g_defs id
let roots g = List.rev g.g_roots

let defs g = Hashtbl.fold (fun _ d acc -> d :: acc) g.g_defs []
