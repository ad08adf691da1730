(* The unused-export pass: a [val] in an interface is dead when no def
   of another scanned file calls it.  Callers are read off the call
   graph's resolved sites, so an export counts as used exactly when the
   resolver placed some cross-file reference on its definition. *)

open Parsetree

(* Exported value paths, with their [val] locations: top-level values
   and those of nested [module M : sig ... end] blocks. *)
let rec sig_values prefix items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd -> [ (prefix @ [ vd.pval_name.Location.txt ], vd.pval_loc) ]
      | Psig_module
          {
            pmd_name = { Location.txt = Some m; _ };
            pmd_type = { pmty_desc = Pmty_signature s; _ };
            _;
          } ->
        sig_values (prefix @ [ m ]) s
      | _ -> [])
    items

let finding ~file ~(loc : Location.t) message =
  let p = loc.loc_start in
  {
    Finding.rule = Finding.Unused_export;
    file;
    line = max 1 p.pos_lnum;
    col = max 0 (p.pos_cnum - p.pos_bol);
    message;
    trace = [];
  }

let check ~oracles g interfaces =
  let defined = Hashtbl.create 1024 and called = Hashtbl.create 1024 in
  List.iter
    (fun (d : Callgraph.def) ->
      Hashtbl.replace defined (d.d_file, d.d_path) ();
      List.iter
        (fun (cs : Callgraph.call_site) ->
          match Option.bind cs.cs_resolved (Callgraph.find_def g) with
          | Some t when t.d_file <> d.d_file -> Hashtbl.replace called (t.d_file, t.d_path) ()
          | _ -> ())
        d.d_calls)
    (Callgraph.defs g);
  let exports =
    List.concat_map
      (fun (mli, sg) ->
        let m = Callgraph.module_of_file mli and ml = Filename.remove_extension mli ^ ".ml" in
        List.map (fun (path, loc) -> (m, ml, mli, path, loc)) (sig_values [] sg))
      interfaces
  in
  let listed (m, name) (m', _, _, path, _) = m = m' && name = String.concat "." path in
  let unused =
    List.filter_map
      (fun ((m, ml, mli, path, loc) as e) ->
        (* a value with no def of its own (an alias, an [include]d or
           functor-built value) is beyond the resolver: not judged *)
        if
          Hashtbl.mem called (ml, path)
          || (not (Hashtbl.mem defined (ml, path)))
          || List.exists (fun o -> listed o e) oracles
        then None
        else
          Some
            (finding ~file:mli ~loc
               (Printf.sprintf
                  "%s.%s is exported but no other scanned file calls it; delete it, drop \
                   it from the interface, or list it in Lint.Policy.test_oracles with a \
                   reason"
                  m (String.concat "." path))))
      exports
  in
  (* An allowlist entry that names no scanned export is itself a
     finding, so the allowlist cannot outlive the code it excuses. *)
  let stale =
    List.filter_map
      (fun ((m, name) as o) ->
        if List.exists (listed o) exports then None
        else
          Some
            (finding ~file:"lib/lint/policy.ml" ~loc:Location.none
               (Printf.sprintf
                  "Lint.Policy.test_oracles lists %s.%s, which no scanned interface exports; \
                   delete the entry"
                  m name)))
      oracles
  in
  unused @ stale
