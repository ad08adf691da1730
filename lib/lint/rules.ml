open Parsetree
open Ast_iterator

type state = {
  file : string;
  mutable in_local : int;  (* nesting depth of protocol local-function bodies *)
  mutable acc : Finding.t list;
}

let emit st rule (loc : Location.t) message =
  let p = loc.loc_start in
  st.acc <-
    {
      Finding.rule;
      file = st.file;
      line = p.pos_lnum;
      col = p.pos_cnum - p.pos_bol;
      message;
      trace = [];
    }
    :: st.acc

(* Spelled by concatenation so these user-facing messages never register
   as suppression comments when the linter (or the stale-suppression
   pass) scans its own source. *)
let allow_hint rule = "(* lint:" ^ " allow " ^ rule ^ " -- reason *)"

(* [Longident.flatten] raises on functor applications; those can never
   spell the constants we ban. *)
let flatten lid = try Longident.flatten lid with _ -> []

let last_two path =
  match List.rev path with
  | f :: m :: _ -> Some (m, f)
  | [ f ] -> Some ("", f)
  | [] -> None

(* ---------- per-identifier checks ---------- *)

let partial_stdlib = [ ("List", "hd"); ("List", "nth"); ("Option", "get"); ("Array", "unsafe_get") ]
let clock_reads = [ ("Unix", "gettimeofday"); ("Unix", "time"); ("Unix", "localtime"); ("Unix", "gmtime"); ("Sys", "time") ]

(* Unix syscalls that move bytes or descriptors.  Pure Unix values
   (sockaddrs, [error_message], errno tests) are deliberately absent:
   handling a [Unix_error] is fine anywhere, issuing a syscall is not. *)
let unix_syscalls =
  [
    "socket"; "accept"; "bind"; "listen"; "connect"; "shutdown"; "select";
    "recv"; "send"; "read"; "write"; "write_substring"; "single_write";
    "close"; "openfile"; "pipe"; "fork"; "set_nonblock"; "clear_nonblock";
    "setsockopt"; "setsockopt_float"; "setsockopt_int"; "getsockname";
    "getaddrinfo"; "unlink"; "sleep"; "sleepf";
  ]

let check_ident st loc lid =
  let path = flatten lid in
  match last_two path with
  | None -> ()
  | Some ((m, f) as mf) ->
    (* view-boundary (a): view constructors outside the engine/reductions *)
    if
      (mf = ("View", "make") || mf = ("View", "of_slice"))
      && not (Policy.matches st.file Policy.view_builders)
    then
      emit st Finding.View_boundary loc
        (Printf.sprintf
           "View.%s outside the engine/reduction modules listed in view.mli: only the execution \
            engine and referee-side oracle simulations may construct views"
           f);
    (* view-boundary (b): graph-representation accessors inside a
       protocol local function — any backend, not just the materialized
       one *)
    if
      st.in_local > 0
      && List.exists
           (fun c -> c = "Graph" || c = "Graph_source" || c = "Csr" || c = "Implicit")
           path
      && m <> ""
    then
      emit st Finding.View_boundary loc
        (Printf.sprintf
           "graph access %s inside a protocol local function: locals may only read their View.t \
            (Definition 1), whichever Graph_source backend built it"
           (String.concat "." path));
    (* determinism: the global PRNG *)
    if m = "Random" then
      emit st Finding.Determinism loc
        (if f = "self_init" then
           "Random.self_init makes transcripts irreproducible; seed a Random.State explicitly"
         else
           Printf.sprintf
             "Random.%s touches the shared global PRNG (width-dependent under Parallel); thread \
              a seeded Random.State instead"
             f);
    (* determinism: wall-clock reads *)
    if List.mem mf clock_reads && not (Policy.matches st.file Policy.clock_ok) then
      emit st Finding.Determinism loc
        (Printf.sprintf
           "wall-clock read %s.%s outside Metrics' injected clock breaks run reproducibility" m f);
    (* determinism: socket / descriptor syscalls outside the transport *)
    if m = "Unix" && List.mem f unix_syscalls && not (Policy.matches st.file Policy.unix_ok) then
      emit st Finding.Determinism loc
        (Printf.sprintf
           "Unix.%s outside the serve transport: socket and descriptor syscalls are confined to \
            lib/serve's daemon/client so model runs stay kernel-free and reproducible"
           f);
    (* determinism: raw domains *)
    if mf = ("Domain", "spawn") && not (Policy.matches st.file Policy.spawn_ok) then
      emit st Finding.Determinism loc
        "raw Domain.spawn outside Parallel: use the deterministic domain pool";
    (* referee-totality: partial stdlib + failwith *)
    if not (Policy.matches st.file Policy.totality_exempt) then begin
      if List.mem mf partial_stdlib then
        emit st Finding.Referee_totality loc
          (Printf.sprintf
             "partial function %s.%s: referees must be total — use a total variant or justify \
              with %s"
             m f
             (allow_hint "referee-totality"));
      if f = "failwith" && (m = "" || m = "Stdlib") then
        emit st Finding.Referee_totality loc
          ("failwith in library code: referees must be total — raise a typed exception, return a \
            verdict, or justify with "
          ^ allow_hint "referee-totality")
    end;
    (* bit-accounting: raw byte construction *)
    if (m = "Bytes" || m = "Buffer") && not (Policy.matches st.file Policy.bytes_ok) then
      emit st Finding.Bit_accounting loc
        (Printf.sprintf
           "raw %s.%s: message bytes are constructed via Message / Refnet_bits only, so every \
            bit is accounted against the theorem budgets"
           m f)

(* ---------- the walk ---------- *)

let last_component lid = match List.rev (flatten lid) with c :: _ -> Some c | [] -> None

let check ~file ast =
  let st = { file; in_local = 0; acc = [] } in
  let in_local_scope f =
    st.in_local <- st.in_local + 1;
    f ();
    st.in_local <- st.in_local - 1
  in
  let iter = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident st loc txt
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      when not (Policy.matches st.file Policy.totality_exempt) ->
      emit st Finding.Referee_totality e.pexp_loc
        ("assert false: referees must be total — make the case impossible by construction or \
          justify with "
        ^ allow_hint "referee-totality")
    | _ -> ());
    match e.pexp_desc with
    | Pexp_record (fields, base) ->
      Option.iter (it.expr it) base;
      List.iter
        (fun ({ Location.txt; _ }, value) ->
          match last_component txt with
          (* [local] is the one-round node function; [send]/[receive]
             are the Bcc per-round node functions — all three run on a
             node and may only read their View.t.  The referee-side
             fields ([init], [r_*]) are not scoped: referee oracles
             legitimately probe graph representations. *)
          | Some ("local" | "send" | "receive") -> in_local_scope (fun () -> it.expr it value)
          | _ -> it.expr it value)
        fields
    | _ -> iter.expr it e
  in
  let value_binding it vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = "local" | "send" | "receive"; _ } ->
      it.pat it vb.pvb_pat;
      in_local_scope (fun () -> it.expr it vb.pvb_expr)
    | _ -> iter.value_binding it vb
  in
  let it = { iter with expr; value_binding } in
  it.structure it ast;
  List.rev st.acc
