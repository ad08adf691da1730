(* Baseline reports: load a previously committed schema-v2 JSON report
   and diff a fresh run against it, so [refnet lint --deep --baseline]
   fails only on *new* findings — the ratchet that lets a rule land
   before every historical finding is burned down.

   Keys are [(rule, file, message)] as a multiset: line-insensitive, so
   unrelated edits that shift a known finding do not break CI, but a
   second occurrence of the same defect in the same file does. *)

open Refnet_json

(* [of_report src] extracts the [(rule, file, message)] multiset from a
   schema-v1-or-v2 report document. *)
let of_report src =
  let finding = function
    | Json.Obj item ->
      let field k = match List.assoc_opt k item with Some (Json.Str s) -> s | _ -> raise Exit in
      (field "rule", field "file", field "message")
    | _ -> raise Exit
  in
  match Json.parse src with
  | exception Json.Error e -> Error ("baseline is not valid JSON: " ^ e)
  | doc -> (
    match List.assoc_opt "findings" doc with
    | Some (Json.Arr items) -> (
      try Ok (List.map finding items)
      with Exit -> Error "baseline finding lacks rule/file/message")
    | _ -> Error "baseline has no \"findings\" array")

let load path =
  match
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))
    with Sys_error _ -> None
  with
  | None -> Error (Printf.sprintf "cannot read baseline %s" path)
  | Some src -> of_report src

(* [diff ~baseline findings] keeps the findings not accounted for by
   the baseline multiset. *)
let diff ~baseline findings =
  let budget = Hashtbl.create 64 in
  List.iter
    (fun key ->
      Hashtbl.replace budget key (1 + Option.value ~default:0 (Hashtbl.find_opt budget key)))
    baseline;
  List.filter
    (fun f ->
      let key = (Finding.rule_name f.Finding.rule, f.Finding.file, f.Finding.message) in
      match Hashtbl.find_opt budget key with
      | Some n when n > 0 ->
        Hashtbl.replace budget key (n - 1);
        false
      | _ -> true)
    findings
