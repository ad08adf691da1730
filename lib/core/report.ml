(* ---------- a parser for the JSON objects Trace.jsonl writes ----------

   One object per line; values are strings, integers, the done line's
   budget (an object of strings and numbers, or null).  Hand-rolled so
   the analysis pipeline stays dependency-free. *)

type jvalue = S of string | I of int | F of float | Null | O of (string * jvalue) list

exception Parse of string

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at column %d" msg (!pos + 1))) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t' || line.[!pos] = '\r') do
      advance ()
    done
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code =
            (hex line.[!pos] lsl 12) lor (hex line.[!pos + 1] lsl 8)
            lor (hex line.[!pos + 2] lsl 4) lor hex line.[!pos + 3]
          in
          pos := !pos + 4;
          (* The writer only \u-escapes control characters, which are
             single bytes; anything else round-trips as UTF-8 already. *)
          if code < 0x80 then Buffer.add_char b (Char.chr code) else fail "non-ASCII \\u escape"
        | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let float = ref false in
    if peek () = Some '-' then advance ();
    while
      match peek () with
      | Some ('0' .. '9') -> true
      | Some ('.' | 'e' | 'E' | '+' | '-') -> float := true; true
      | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    let lit = String.sub line start (!pos - start) in
    if !float then
      match float_of_string_opt lit with Some v -> F v | None -> fail "bad number"
    else match int_of_string_opt lit with Some v -> I v | None -> fail "number out of range"
  in
  let rec parse_value () =
    match peek () with
    | Some '"' -> S (parse_string ())
    | Some '{' -> O (parse_object ())
    | Some 'n' ->
      if !pos + 4 <= n && String.sub line !pos 4 = "null" then (pos := !pos + 4; Null)
      else fail "expected a value"
    | _ -> parse_number ()
  and parse_object () =
    expect '{';
    let fields = ref [] in
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        skip_ws ();
        fields := (key, parse_value ()) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ()
    end;
    List.rev !fields
  in
  skip_ws ();
  let fields = parse_object () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  fields

let str fields key =
  match List.assoc_opt key fields with
  | Some (S s) -> s
  | _ -> raise (Parse (Printf.sprintf "missing string field %S" key))

let int_ fields key =
  match List.assoc_opt key fields with
  | Some (I v) -> v
  | _ -> raise (Parse (Printf.sprintf "missing integer field %S" key))

let budget_of fields =
  match List.assoc_opt "budget" fields with
  | None ->
    raise
      (Parse "done line has no \"budget\" field (a pre-typed-budget trace: record it again)")
  | Some Null -> None
  | Some (O b) -> (
    let c_max =
      match List.assoc_opt "c_max" b with
      | Some (F c) -> c
      | Some (I c) -> float_of_int c
      | _ -> raise (Parse "missing number field \"c_max\"")
    in
    match Bound_audit.shape_of_tag (str b "shape") (int_ b "k") with
    | Some b_shape -> Some { Bound_audit.b_shape; c_max; n_min = int_ b "n_min" }
    | None -> raise (Parse (Printf.sprintf "unknown budget shape %S" (str b "shape"))))
  | Some _ -> raise (Parse "\"budget\" must be an object or null")

(* ---------- aggregation ---------- *)

type proto = {
  mutable runs : int;
  mutable n_lo : int;
  mutable n_hi : int;
  mutable locals : int;
  mutable absorbs : int;
  mutable bits_sum : int;
  mutable bits_max : int;
  bits_buckets : int array; (* log2 buckets over Node_local bits *)
  mutable queries_sum : int;
  mutable broadcasts : int; (* Bcc referee broadcasts *)
  mutable bcast_bits : int; (* summed broadcast payload bits *)
  faults : (string, int) Hashtbl.t; (* fault kind -> count *)
  mutable total_bits : int; (* summed over Referee_done events *)
  mutable obs : Bound_audit.observation list; (* reversed *)
  mutable budget : Bound_audit.budget option option; (* None until the first done *)
}

type t = {
  protocols : (string, proto) Hashtbl.t;
  mutable stack : string list; (* open span labels, innermost first *)
  mutable n_events : int;
}

let create () = { protocols = Hashtbl.create 8; stack = []; n_events = 0 }
let events t = t.n_events

let unattributed = "(unattributed)"

let proto t label =
  match Hashtbl.find_opt t.protocols label with
  | Some p -> p
  | None ->
    let p =
      {
        runs = 0;
        n_lo = max_int;
        n_hi = 0;
        locals = 0;
        absorbs = 0;
        bits_sum = 0;
        bits_max = 0;
        bits_buckets = Array.make 64 0;
        queries_sum = 0;
        broadcasts = 0;
        bcast_bits = 0;
        faults = Hashtbl.create 4;
        total_bits = 0;
        obs = [];
        budget = None;
      }
    in
    Hashtbl.add t.protocols label p;
    p

let current_label t = match t.stack with l :: _ -> l | [] -> unattributed

let fault_kind fault =
  match String.index_opt fault ':' with
  | Some i -> String.sub fault 0 i
  | None -> fault

let ingest_fields t fields =
  (match str fields "event" with
  | "span_begin" -> t.stack <- str fields "label" :: t.stack
  | "span_end" -> (
    match t.stack with
    | _ :: rest -> t.stack <- rest
    | [] -> raise (Parse "span_end without an open span"))
  | "local" ->
    let p = proto t (current_label t) in
    let bits = int_ fields "bits" in
    p.locals <- p.locals + 1;
    p.bits_sum <- p.bits_sum + bits;
    if bits > p.bits_max then p.bits_max <- bits;
    let b = Metrics.Histogram.bucket_index bits in
    p.bits_buckets.(b) <- p.bits_buckets.(b) + 1;
    p.queries_sum <-
      p.queries_sum + int_ fields "id_reads" + int_ fields "n_reads" + int_ fields "deg_reads"
      + int_ fields "neighbor_reads"
  | "absorb" ->
    let p = proto t (current_label t) in
    ignore (int_ fields "id");
    ignore (int_ fields "bits");
    p.absorbs <- p.absorbs + 1
  | "broadcast" ->
    (* Emitted inside the round span, so it lands on the [round=r]
       label — the budget the broadcast is held to is per-round too. *)
    let p = proto t (current_label t) in
    ignore (int_ fields "round");
    p.broadcasts <- p.broadcasts + 1;
    p.bcast_bits <- p.bcast_bits + int_ fields "bits"
  | "fault" ->
    let p = proto t (current_label t) in
    let kind = fault_kind (str fields "fault") in
    Hashtbl.replace p.faults kind (1 + Option.value ~default:0 (Hashtbl.find_opt p.faults kind))
  | "done" ->
    (* Attributed to its own label, not the span stack: the done event
       is the authoritative per-run record used for bound auditing, and
       it carries the budget the run is audited under. *)
    let label = str fields "label" in
    let budget = budget_of fields in
    let p = proto t label in
    (match p.budget with
    | Some b when b <> budget ->
      raise (Parse (Printf.sprintf "label %S carries two different budgets" label))
    | _ -> p.budget <- Some budget);
    let n = int_ fields "n" in
    p.runs <- p.runs + 1;
    if n < p.n_lo then p.n_lo <- n;
    if n > p.n_hi then p.n_hi <- n;
    p.total_bits <- p.total_bits + int_ fields "total_bits";
    p.obs <- { Bound_audit.o_n = n; o_max_bits = int_ fields "max_bits" } :: p.obs
  | other -> raise (Parse (Printf.sprintf "unknown event %S" other)));
  t.n_events <- t.n_events + 1

let is_blank line = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

let ingest_line t line =
  if not (is_blank line) then
    match parse_line line with
    | fields -> (
      (* ingest_fields can itself reject a well-formed object (unknown
         event tag, missing field) — surface that as Failure too. *)
      try ingest_fields t fields
      with Parse msg -> failwith (Printf.sprintf "bad trace line (%s): %s" msg line)) (* lint: allow referee-totality -- documented ingest contract: bad lines raise Failure *)
    | exception Parse msg -> failwith (Printf.sprintf "bad trace line (%s): %s" msg line) (* lint: allow referee-totality -- documented ingest contract: bad lines raise Failure *)

let ingest_event t ev = ingest_line t (Trace.json_of_event ev)
let sink t = Trace.make (fun ev -> ingest_event t ev)

let ingest_file t path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      try
        while true do
          let line = input_line ic in
          incr lineno;
          try ingest_line t line
          with Failure msg -> failwith (Printf.sprintf "%s:%d: %s" path !lineno msg) (* lint: allow referee-totality -- re-raise with file:line context *)
        done
      with End_of_file -> ())

(* ---------- audits ---------- *)

let sorted_protocols t =
  Hashtbl.fold (fun label p acc -> (label, p) :: acc) t.protocols []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let verdicts t =
  List.filter_map
    (fun (label, p) ->
      match p.budget with
      | Some (Some b) -> Some (Bound_audit.audit ~label b (List.rev p.obs))
      | Some None | None -> None)
    (sorted_protocols t)

let violations t = List.filter (fun v -> not v.Bound_audit.v_passed) (verdicts t)

(* ---------- rendering ---------- *)

let sorted_faults p =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.faults []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* p50/p90/p99 of per-node message bits, straight off the log2 buckets
   the proto already keeps (same resolution as Metrics histograms). *)
let bits_quantiles p =
  let buckets = ref [] in
  for idx = Array.length p.bits_buckets - 1 downto 0 do
    if p.bits_buckets.(idx) > 0 then buckets := (idx, p.bits_buckets.(idx)) :: !buckets
  done;
  let snap =
    { Metrics.h_count = p.locals; h_sum = p.bits_sum; h_max = p.bits_max; h_buckets = !buckets }
  in
  ( Metrics.snapshot_quantile snap 0.5,
    Metrics.snapshot_quantile snap 0.9,
    Metrics.snapshot_quantile snap 0.99 )

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"audits\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Bound_audit.verdict_json v))
    (verdicts t);
  Buffer.add_string b "],\"protocols\":{";
  List.iteri
    (fun i (label, p) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Trace.json_string label);
      Buffer.add_string b
        (Printf.sprintf ":{\"absorbs\":%d,\"bits_buckets\":{" p.absorbs);
      let first = ref true in
      Array.iteri
        (fun idx c ->
          if c > 0 then begin
            if not !first then Buffer.add_char b ',';
            first := false;
            Buffer.add_string b (Printf.sprintf "\"%d\":%d" idx c)
          end)
        p.bits_buckets;
      let p50, p90, p99 = bits_quantiles p in
      Buffer.add_string b
        (Printf.sprintf
           "},\"bits_max\":%d,\"bits_p50\":%d,\"bits_p90\":%d,\"bits_p99\":%d,\"bits_sum\":%d,\"broadcast_bits\":%d,\"broadcasts\":%d,\"faults\":{"
           p.bits_max p50 p90 p99 p.bits_sum p.bcast_bits p.broadcasts);
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%s:%d" (Trace.json_string k) v))
        (sorted_faults p);
      Buffer.add_string b
        (Printf.sprintf
           "},\"locals\":%d,\"n_max\":%d,\"n_min\":%d,\"queries\":%d,\"runs\":%d,\"total_bits\":%d}"
           p.locals p.n_hi
           (if p.n_lo = max_int then 0 else p.n_lo)
           p.queries_sum p.runs p.total_bits))
    (sorted_protocols t);
  Buffer.add_string b (Printf.sprintf "},\"trace_events\":%d}" t.n_events);
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "trace events: %d@." t.n_events;
  List.iter
    (fun (label, p) ->
      Format.fprintf fmt "@.%s@." label;
      if p.runs > 0 then begin
        if p.n_lo = p.n_hi then Format.fprintf fmt "  runs: %d (n=%d)@." p.runs p.n_lo
        else Format.fprintf fmt "  runs: %d (n=%d..%d)@." p.runs p.n_lo p.n_hi
      end;
      if p.locals > 0 then begin
        let p50, p90, p99 = bits_quantiles p in
        Format.fprintf fmt "  locals: %d  bits max=%d sum=%d p50=%d p90=%d p99=%d  view queries=%d@."
          p.locals p.bits_max p.bits_sum p50 p90 p99 p.queries_sum
      end;
      if p.absorbs > 0 then Format.fprintf fmt "  absorbs: %d@." p.absorbs;
      if p.broadcasts > 0 then
        Format.fprintf fmt "  broadcasts: %d  bits sum=%d@." p.broadcasts p.bcast_bits;
      if p.total_bits > 0 then Format.fprintf fmt "  total bits over runs: %d@." p.total_bits;
      Array.iteri
        (fun idx c ->
          if c > 0 then begin
            let lo, hi = Metrics.Histogram.bucket_range idx in
            Format.fprintf fmt "  bits [%d..%d]: %d message%s@." lo hi c
              (if c = 1 then "" else "s")
          end)
        p.bits_buckets;
      List.iter (fun (k, v) -> Format.fprintf fmt "  faults %s: %d@." k v) (sorted_faults p))
    (sorted_protocols t);
  match verdicts t with
  | [] -> Format.fprintf fmt "@.no auditable protocols in this trace@."
  | vs ->
    Format.fprintf fmt "@.bound audit@.";
    List.iter
      (fun v ->
        (* quantile columns ride along from the label's message-size
           buckets; a label with no locals shows p50=p90=p99=0 *)
        let q =
          match Hashtbl.find_opt t.protocols v.Bound_audit.v_label with
          | Some p when p.locals > 0 ->
            let p50, p90, p99 = bits_quantiles p in
            Printf.sprintf "  p50=%d p90=%d p99=%d" p50 p90 p99
          | _ -> ""
        in
        Format.fprintf fmt "  %a%s@." Bound_audit.pp_verdict v q)
      vs
