type event =
  | Span_begin of { label : string; n : int }
  | Span_end of { label : string; n : int }
  | Node_local of { id : int; bits : int; queries : View.counts }
  | Referee_absorb of { id : int; bits : int }
  | Fault_injected of { id : int; fault : Faults.fault }
  | Referee_broadcast of { round : int; bits : int }
  | Referee_done of {
      label : string;
      n : int;
      max_bits : int;
      total_bits : int;
      budget : Bound_audit.budget option;
    }

type sink =
  | Null
  | Emit of (event -> unit)
  | Emit_session of (int64 option -> event -> unit)

let null = Null
let is_null = function Null -> true | Emit _ | Emit_session _ -> false
let make f = Emit f

let emit sink ev =
  match sink with Null -> () | Emit f -> f ev | Emit_session f -> f None ev

let emit_session sink ~session ev =
  match sink with
  | Null -> ()
  | Emit f -> f ev
  | Emit_session f -> f (Some session) ev

let pp_event fmt = function
  | Span_begin { label; n } -> Format.fprintf fmt "begin %-12s n=%d" label n
  | Span_end { label; n } -> Format.fprintf fmt "end   %-12s n=%d" label n
  | Node_local { id; bits; queries = q } ->
    Format.fprintf fmt "local node=%d bits=%d queries=[id:%d n:%d deg:%d nbrs:%d]" id bits
      q.View.id_reads q.View.n_reads q.View.deg_reads q.View.neighbor_reads
  | Referee_absorb { id; bits } -> Format.fprintf fmt "absorb node=%d bits=%d" id bits
  | Fault_injected { id; fault } ->
    Format.fprintf fmt "fault node=%d %s" id (Faults.fault_to_string fault)
  | Referee_broadcast { round; bits } ->
    Format.fprintf fmt "bcast round=%d bits=%d" round bits
  | Referee_done { label; n; max_bits; total_bits; _ } ->
    Format.fprintf fmt "done  %-12s n=%d max=%d bits total=%d bits" label n max_bits total_bits

let pretty fmt = Emit (fun ev -> Format.fprintf fmt "[trace] %a@." pp_event ev)

(* Every field is a string, an int, an event tag or the done line's
   budget object — no escaping beyond the label strings, which are
   protocol names (alphanumeric plus a few punctuation characters).
   Escape anyway, defensively. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The done line's "budget": {"shape":TAG,"k":K,"c_max":C,"n_min":N},
   or null for a run with no theorem to audit.  %.17g round-trips. *)
let budget_json = function
  | None -> "null"
  | Some { Bound_audit.b_shape; c_max; n_min } ->
    let tag, k = Bound_audit.shape_tag b_shape in
    Printf.sprintf {|{"shape":"%s","k":%d,"c_max":%.17g,"n_min":%d}|} tag k c_max n_min

let json_body = function
  | Span_begin { label; n } ->
    Printf.sprintf {|{"event":"span_begin","label":%s,"n":%d}|} (json_string label) n
  | Span_end { label; n } ->
    Printf.sprintf {|{"event":"span_end","label":%s,"n":%d}|} (json_string label) n
  | Node_local { id; bits; queries = q } ->
    Printf.sprintf
      {|{"event":"local","id":%d,"bits":%d,"id_reads":%d,"n_reads":%d,"deg_reads":%d,"neighbor_reads":%d}|}
      id bits q.View.id_reads q.View.n_reads q.View.deg_reads q.View.neighbor_reads
  | Referee_absorb { id; bits } ->
    Printf.sprintf {|{"event":"absorb","id":%d,"bits":%d}|} id bits
  | Fault_injected { id; fault } ->
    Printf.sprintf {|{"event":"fault","id":%d,"fault":%s}|} id
      (json_string (Faults.fault_to_string fault))
  | Referee_broadcast { round; bits } ->
    Printf.sprintf {|{"event":"broadcast","round":%d,"bits":%d}|} round bits
  | Referee_done { label; n; max_bits; total_bits; budget } ->
    Printf.sprintf
      {|{"event":"done","label":%s,"n":%d,"max_bits":%d,"total_bits":%d,"budget":%s}|}
      (json_string label) n max_bits total_bits (budget_json budget)

(* The session id rides as an extra leading field: Report's parser
   tolerates fields it does not know, so tagged and untagged lines feed
   the same pipeline. *)
let json_of_event ?session ev =
  let base = json_body ev in
  match session with
  | None -> base
  | Some id ->
    Printf.sprintf {|{"session_id":"%016Lx",%s|} id
      (String.sub base 1 (String.length base - 1))

let jsonl oc =
  Emit_session
    (fun session ev ->
      output_string oc (json_of_event ?session ev);
      output_char oc '\n';
      (* Each Referee_done closes a run; flushing there bounds the loss
         window to the current run even when the process exits through
         the CLI's diagnostic path (exit 2) without closing the
         caller-owned channel. *)
      match ev with Referee_done _ -> flush oc | _ -> ())

let memory () =
  let events = ref [] in
  (Emit (fun ev -> events := ev :: !events), fun () -> List.rev !events)

let balanced_spans events =
  let rec go stack = function
    | [] -> stack = []
    | Span_begin { label; _ } :: rest -> go (label :: stack) rest
    | Span_end { label; _ } :: rest -> (
      match stack with l :: tl when String.equal l label -> go tl rest | _ -> false)
    | _ :: rest -> go stack rest
  in
  go [] events
