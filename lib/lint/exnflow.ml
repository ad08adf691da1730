(* Exception-escape totality prover.

   Computes, per definition in the call graph, the set of exception
   keys that may escape it — own raise sites minus enclosing handlers,
   plus every callee's escape set minus the handlers around the call
   site — as a monotone worklist fixpoint over the finite lattice of
   key sets.  A raised *variable* ([raise e]) contributes the wildcard
   key ["?"], which only a catch-all handler removes.

   Unresolved callees contribute nothing (the sound-for-nothing edge of
   the approximation — documented in DESIGN.md §16), except for a small
   table of partial stdlib primitives whose raising behaviour is
   modeled explicitly.

   The prover then checks every referee root (streaming, sealed and
   guarded init/absorb/finish, Bcc round functions): any escaping key outside
   the documented malformed class ([allowed]) is an [Exn_escape]
   finding carrying the chain of call sites from the root down to the
   offending raise. *)

module SS = Set.Make (String)

(* The documented malformed class: [Protocol.default_malformed], which
   [Protocol.guard] — the absorb step of every sealed and hardened
   referee, [Bcc.harden]'s included — absorbs exactly, keyed by
   module-qualified name ([Callgraph.exn_key]). *)
let allowed = [ "Message.Malformed"; "Bit_reader.Exhausted"; "Invalid_argument"; "Failure" ]

let allowed_set = SS.of_list allowed

(* Partial stdlib primitives with modeled raising behaviour, keyed by
   the last two longident components.  Implicit failures (array bounds,
   Division_by_zero) are *not* modeled — bounds errors raise
   Invalid_argument, which is inside the allowed class anyway. *)
let primitive_raises = function
  | "List", ("hd" | "tl") -> [ "Failure" ]
  | "List", "nth" -> [ "Failure"; "Invalid_argument" ]
  | ("List" | "Hashtbl"), ("find" | "assoc") -> [ "Not_found" ]
  | "Option", "get" -> [ "Invalid_argument" ]
  | "Queue", ("pop" | "peek" | "take") -> [ "Queue.Empty" ]
  | "Stack", ("pop" | "top") -> [ "Stack.Empty" ]
  | ("" | "Stdlib"), ("int_of_string" | "float_of_string" | "bool_of_string") ->
    [ "Failure" ]
  | _ -> []

let prims_of_path path =
  match List.rev path with
  | f :: m :: _ -> primitive_raises (m, f)
  | [ f ] -> primitive_raises ("", f)
  | [] -> []

(* Witness for "key k escapes def d": either d raises it directly, or a
   call site lets it through from a callee (or a modeled primitive). *)
type witness =
  | W_raise of Callgraph.raise_site
  | W_call of Callgraph.call_site * string  (* callee def id *)
  | W_prim of Callgraph.call_site

type analysis = {
  may_raise : (string, SS.t) Hashtbl.t;  (* def id -> escaping keys *)
  witness : (string * string, witness) Hashtbl.t;  (* (def id, key) -> how *)
}

let escapes_site ~caught ~catch_all key =
  if catch_all then false
  else if key = "?" then true  (* only a catch-all absorbs an unknown exn *)
  else not (List.mem key caught)

let compute g =
  let a = { may_raise = Hashtbl.create 512; witness = Hashtbl.create 512 } in
  let defs = Callgraph.defs g in
  List.iter (fun d -> Hashtbl.replace a.may_raise d.Callgraph.d_id SS.empty) defs;
  (* reverse edges for the worklist *)
  let callers = Hashtbl.create 512 in
  List.iter
    (fun d ->
      List.iter
        (fun cs ->
          match cs.Callgraph.cs_resolved with
          | Some callee ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt callers callee) in
            if not (List.mem d.Callgraph.d_id prev) then
              Hashtbl.replace callers callee (d.Callgraph.d_id :: prev)
          | None -> ())
        d.Callgraph.d_calls)
    defs;
  let step d =
    let open Callgraph in
    let set = ref (Option.value ~default:SS.empty (Hashtbl.find_opt a.may_raise d.d_id)) in
    let add key w =
      if not (SS.mem key !set) then begin
        set := SS.add key !set;
        Hashtbl.replace a.witness (d.d_id, key) w
      end
    in
    List.iter
      (fun rs ->
        if escapes_site ~caught:rs.rs_caught ~catch_all:rs.rs_catch_all rs.rs_exn then
          add rs.rs_exn (W_raise rs))
      d.d_raises;
    List.iter
      (fun cs ->
        let callee_keys, mk =
          match cs.cs_resolved with
          | Some id ->
            ( Option.value ~default:SS.empty (Hashtbl.find_opt a.may_raise id),
              fun () -> W_call (cs, id) )
          | None -> (SS.of_list (prims_of_path cs.cs_path), fun () -> W_prim cs)
        in
        SS.iter
          (fun key ->
            if escapes_site ~caught:cs.cs_caught ~catch_all:cs.cs_catch_all key then
              add key (mk ()))
          callee_keys)
      d.d_calls;
    let before = Option.value ~default:SS.empty (Hashtbl.find_opt a.may_raise d.d_id) in
    if SS.equal before !set then false
    else begin
      Hashtbl.replace a.may_raise d.d_id !set;
      true
    end
  in
  let queue = Queue.create () in
  let queued = Hashtbl.create 512 in
  let enqueue id =
    if not (Hashtbl.mem queued id) then begin
      Hashtbl.replace queued id ();
      Queue.add id queue
    end
  in
  List.iter (fun d -> enqueue d.Callgraph.d_id) defs;
  while not (Queue.is_empty queue) do
    let id = Queue.take queue in
    Hashtbl.remove queued id;
    match Callgraph.find_def g id with
    | None -> ()
    | Some d ->
      if step d then
        List.iter enqueue (Option.value ~default:[] (Hashtbl.find_opt callers id))
  done;
  a

(* Reconstruct the call chain from [id] down to the raise site of
   [key].  Cycle-guarded; at most 32 hops. *)
let trace_of g a id key =
  let open Callgraph in
  let rec go id key seen depth acc =
    if depth > 32 || List.mem id seen then List.rev acc
    else
      match Hashtbl.find_opt a.witness (id, key) with
      | None -> List.rev acc
      | Some w -> (
        let fn =
          match find_def g id with Some d -> def_display d | None -> id
        in
        let file = match find_def g id with Some d -> d.d_file | None -> "" in
        match w with
        | W_raise rs ->
          List.rev
            ({
               Finding.s_file = file;
               s_line = rs.rs_line;
               s_fn = fn;
               s_note =
                 (if rs.rs_exn = "?" then "re-raises a caught exception"
                  else "raise " ^ rs.rs_exn);
             }
            :: acc)
        | W_prim cs ->
          List.rev
            ({
               Finding.s_file = file;
               s_line = cs.cs_line;
               s_fn = fn;
               s_note =
                 Printf.sprintf "calls partial primitive %s (may raise %s)"
                   (String.concat "." cs.cs_path)
                   (String.concat ", " (prims_of_path cs.cs_path));
             }
            :: acc)
        | W_call (cs, callee) ->
          let callee_fn =
            match find_def g callee with Some d -> def_display d | None -> callee
          in
          go callee key (id :: seen) (depth + 1)
            ({
               Finding.s_file = file;
               s_line = cs.cs_line;
               s_fn = fn;
               s_note = "calls " ^ callee_fn;
             }
            :: acc))
  in
  go id key [] 0 []

(* [check g] proves or refutes totality for every resolved referee
   root.  Returns the findings plus [(roots_proven, roots_total)] for
   the deep report — a root counts as proven when its escape set is
   confined to [allowed]. *)
let check g =
  let a = compute g in
  let roots =
    List.filter_map
      (fun r -> match r.Callgraph.r_def with Some id -> Some (r, id) | None -> None)
      (Callgraph.roots g)
  in
  let findings = ref [] in
  let proven = ref 0 in
  List.iter
    (fun (r, id) ->
      let open Callgraph in
      let mr = Option.value ~default:SS.empty (Hashtbl.find_opt a.may_raise id) in
      let escaping = SS.diff mr allowed_set in
      if SS.is_empty escaping then incr proven
      else
        SS.iter
          (fun key ->
            findings :=
              {
                Finding.rule = Finding.Exn_escape;
                file = r.r_file;
                line = r.r_line;
                col = r.r_col;
                message =
                  Printf.sprintf
                    "%s may escape referee %s: hardened referees absorb only the documented \
                     malformed class (%s), so a hostile input could crash the referee instead \
                     of degrading the verdict"
                    (if key = "?" then "an unidentified exception" else "exception " ^ key)
                    r.r_display
                    (String.concat ", " allowed);
                trace = trace_of g a id key;
              }
              :: !findings)
          escaping)
    roots;
  (List.rev !findings, !proven, List.length roots)
