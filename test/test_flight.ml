(* The flight recorder: ring discipline, dump/decode totality, and the
   byte-determinism the refuse-with-evidence path depends on.

   The contract under test (DESIGN.md §15): recording never blocks and
   never loses silently (overwrites tick a drop counter); dumps are
   byte-deterministic for a given record order whatever the domain
   width; decode is total — any byte string, however hostile, yields
   intact records plus findings and never an exception; and open_traces
   recovers exactly the sessions that died mid-flight. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ev_begin label n = Core.Trace.Span_begin { label; n }
let ev_absorb id bits = Core.Trace.Referee_absorb { id; bits }

let ev_done label n =
  Core.Trace.Referee_done { label; n; max_bits = 7; total_bits = 7 * n; budget = None }

(* ---------- ring discipline ---------- *)

let test_ring_wrap_and_drop_counter () =
  let f = Core.Flight.create ~capacity:16 () in
  Alcotest.(check int) "capacity clamps to >= 16" 16 (Core.Flight.capacity f);
  for i = 1 to 40 do
    Core.Flight.record f ~trace:(Int64.of_int i) (ev_absorb i 3)
  done;
  Alcotest.(check int) "recorded counts everything" 40 (Core.Flight.recorded f);
  Alcotest.(check int) "occupancy capped at capacity" 16 (Core.Flight.occupancy f);
  Alcotest.(check int) "overwrites counted as drops" 24 (Core.Flight.dropped f);
  let d = Core.Flight.decode (Core.Flight.dump f) in
  Alcotest.(check int) "dump holds the newest entries" 16 (List.length d.Core.Flight.d_items);
  Alcotest.(check int) "header carries recorded" 40 d.Core.Flight.d_recorded;
  Alcotest.(check int) "header carries dropped" 24 d.Core.Flight.d_dropped;
  (* oldest-first overwrite: the survivors are exactly traces 25..40 *)
  let traces = List.map (fun i -> i.Core.Flight.i_trace) d.Core.Flight.d_items in
  Alcotest.(check bool) "survivors are the newest" true
    (traces = List.init 16 (fun i -> Int64.of_int (25 + i)));
  Core.Flight.reset f;
  Alcotest.(check int) "reset clears recorded" 0 (Core.Flight.recorded f);
  Alcotest.(check int) "reset clears occupancy" 0 (Core.Flight.occupancy f)

let test_tiny_capacity_is_clamped () =
  let f = Core.Flight.create ~capacity:1 () in
  Alcotest.(check bool) "clamped up" true (Core.Flight.capacity f >= 16)

(* ---------- dump/decode round-trip ---------- *)

let test_roundtrip_events_and_notes () =
  let f = Core.Flight.create () in
  let t = 0x1122334455667788L in
  Core.Flight.record f ~trace:t (ev_begin "count" 8);
  Core.Flight.record f ~trace:t (ev_absorb 3 11);
  Core.Flight.note f ~trace:t ~code:"credit" ~detail:"window overrun";
  Core.Flight.record f ~trace:t (ev_done "count" 8);
  Core.Flight.record f ~trace:0L (ev_begin "unsessioned" 2);
  let d = Core.Flight.decode (Core.Flight.dump f) in
  Alcotest.(check (list string)) "findings empty" []
    (List.map (fun fd -> fd.Core.Flight.f_reason) d.Core.Flight.d_findings);
  let items = d.Core.Flight.d_items in
  Alcotest.(check int) "all items back" 5 (List.length items);
  let kinds = List.map (fun i -> i.Core.Flight.i_kind) items in
  Alcotest.(check (list string)) "kinds in sequence order"
    [ "span_begin"; "absorb"; "note"; "done"; "span_begin" ]
    kinds;
  (* the note round-trips as a (code, detail) pair and has no JSONL line *)
  (match List.filter (fun i -> i.Core.Flight.i_kind = "note") items with
  | [ n ] ->
    Alcotest.(check (option (pair string string))) "note payload"
      (Some ("credit", "window overrun"))
      n.Core.Flight.i_note;
    Alcotest.(check bool) "note has no report line" true (n.Core.Flight.i_line = None)
  | _ -> Alcotest.fail "exactly one note expected");
  (* every event item carries a session-tagged JSONL line Report accepts *)
  let r = Core.Report.create () in
  List.iter
    (fun i ->
      match i.Core.Flight.i_line with
      | Some line ->
        Alcotest.(check bool)
          ("line tagged with session_id: " ^ line)
          true
          (i.Core.Flight.i_trace = 0L
          || contains line (Core.Flight.hex_of_trace i.Core.Flight.i_trace));
        Core.Report.ingest_line r line
      | None -> ())
    items;
  Alcotest.(check bool) "report ingested the events" true (Core.Report.events r > 0)

(* ---------- byte determinism across domain widths ---------- *)

let selftest_dump ~domains =
  let fl = Core.Flight.create ~capacity:(1 lsl 16) () in
  let cfg =
    {
      Serve.Selftest.default_cfg with
      Serve.Selftest.sessions = 60;
      conns = 4;
      n = 8;
      protocol = "count";
      faulty = 0.25;
      seed = 11;
    }
  in
  let engine_cfg =
    { Serve.Selftest.default_engine_cfg with Serve.Engine.domains = Some domains }
  in
  let o = Serve.Selftest.run ~flight:fl ~engine_cfg cfg in
  Alcotest.(check int) ("no drops at domains=" ^ string_of_int domains) 0
    o.Serve.Selftest.o_flight_dropped;
  Core.Flight.dump fl

let test_dump_bytes_deterministic_across_widths () =
  let reference = selftest_dump ~domains:1 in
  Alcotest.(check bool) "reference dump non-trivial" true (String.length reference > 64);
  List.iter
    (fun domains ->
      let d = selftest_dump ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d dump byte-identical to domains=1" domains)
        true (String.equal reference d))
    [ 2; 4; 8 ]

(* ---------- hostile input ---------- *)

let sample_dump () =
  let f = Core.Flight.create () in
  let t = 0xdeadbeefcafeL in
  Core.Flight.record f ~trace:t (ev_begin "count" 6);
  for i = 1 to 6 do
    Core.Flight.record f ~trace:t (ev_absorb i (i * 3))
  done;
  Core.Flight.note f ~trace:t ~code:"verdict" ~detail:"decided";
  Core.Flight.record f ~trace:t (ev_done "count" 6);
  Core.Flight.dump f

let test_truncated_dump_never_raises () =
  let dump = sample_dump () in
  let full = List.length (Core.Flight.decode dump).Core.Flight.d_items in
  Alcotest.(check int) "full dump decodes everything" 9 full;
  for keep = 0 to String.length dump - 1 do
    let d = Core.Flight.decode (String.sub dump 0 keep) in
    (* a proper prefix can never yield MORE records, and a truncated
       tail must be reported as a finding rather than silently eaten *)
    let n = List.length d.Core.Flight.d_items in
    if n > full then Alcotest.failf "prefix %d decoded %d > %d items" keep n full;
    if keep > 24 && n < full && d.Core.Flight.d_findings = [] then
      Alcotest.failf "prefix %d lost records without a finding" keep
  done

let test_corrupt_bytes_become_findings () =
  let dump = sample_dump () in
  let flips = ref 0 and caught = ref 0 in
  String.iteri
    (fun i _ ->
      if i mod 3 = 0 then begin
        incr flips;
        let b = Bytes.of_string dump in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        let d = Core.Flight.decode (Bytes.to_string b) in
        let intact = List.length d.Core.Flight.d_items in
        if d.Core.Flight.d_findings <> [] then incr caught
        else if intact <> 9 then
          Alcotest.failf "flip at %d dropped records without a finding" i
      end)
    dump;
  Alcotest.(check bool) "digest catches most flips" true (!caught > !flips / 2)

let test_garbage_decodes_totally () =
  let rng = Random.State.make [| 97 |] in
  for _ = 1 to 200 do
    let len = Random.State.int rng 512 in
    let s = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    let d = Core.Flight.decode s in
    ignore (List.length d.Core.Flight.d_items + List.length d.Core.Flight.d_findings)
  done

(* ---------- trace ids ---------- *)

let test_hex_roundtrip () =
  List.iter
    (fun t ->
      let h = Core.Flight.hex_of_trace t in
      Alcotest.(check int) "16 digits" 16 (String.length h);
      Alcotest.(check (option int64)) ("roundtrip " ^ h) (Some t)
        (Core.Flight.trace_of_hex h))
    [ 0L; 1L; 0xdeadbeefL; Int64.min_int; Int64.max_int; -1L ];
  Alcotest.(check (option int64)) "reject short" None (Core.Flight.trace_of_hex "abc");
  Alcotest.(check (option int64)) "reject uppercase" None
    (Core.Flight.trace_of_hex "00000000DEADBEEF");
  Alcotest.(check (option int64)) "reject non-hex" None
    (Core.Flight.trace_of_hex "000000000000000g")

(* ---------- open_traces ---------- *)

let test_open_traces_semantics () =
  let f = Core.Flight.create () in
  let alive = 0xaaaaL and dead = 0xddddL and noted = 0x99L in
  (* [dead] ran to a terminal done; [noted] got a verdict note; [alive]
     has activity but no terminal mark; trace 0 is unsessioned noise *)
  Core.Flight.record f ~trace:dead (ev_begin "count" 4);
  Core.Flight.record f ~trace:dead (ev_done "count" 4);
  Core.Flight.record f ~trace:noted (ev_begin "count" 4);
  Core.Flight.note f ~trace:noted ~code:"verdict" ~detail:"degraded";
  Core.Flight.record f ~trace:alive (ev_begin "count" 4);
  Core.Flight.record f ~trace:alive (ev_absorb 1 5);
  Core.Flight.record f ~trace:alive (ev_absorb 2 5);
  Core.Flight.record f ~trace:0L (ev_begin "noise" 2);
  let d = Core.Flight.decode (Core.Flight.dump f) in
  match Core.Flight.open_traces d.Core.Flight.d_items with
  | [ (t, summary) ] ->
    Alcotest.(check bool) "only the mid-flight trace" true (t = alive);
    Alcotest.(check bool) "summary says mid-flight" true
      (contains summary "mid-flight");
    Alcotest.(check bool) "summary counts absorbs" true
      (contains summary "absorbed=2")
  | l -> Alcotest.failf "open_traces returned %d entries" (List.length l)

(* ---------- label decoration vs the bound audit ---------- *)

(* The serve layer's [trace=] tag is display only: record 7 carries the
   typed budget, so a tagged run decoded from a dump audits exactly like
   its bare twin. *)
let test_trace_decoration_is_budget_transparent () =
  let budget = (Core.Degeneracy_protocol.reconstruct ~k:3 ()).budget in
  let audit label =
    let f = Core.Flight.create () in
    Core.Flight.record f ~trace:0xc0ffeeL (ev_begin label 64);
    Core.Flight.record f ~trace:0xc0ffeeL
      (Core.Trace.Referee_done { label; n = 64; max_bits = 300; total_bits = 9000; budget });
    Core.Flight.record f ~trace:0xc0ffeeL (Core.Trace.Span_end { label; n = 64 });
    let d = Core.Flight.decode (Core.Flight.dump f) in
    Alcotest.(check int) "no findings" 0 (List.length d.Core.Flight.d_findings);
    let r = Core.Report.create () in
    List.iter (fun i -> Option.iter (Core.Report.ingest_line r) i.Core.Flight.i_line) d.d_items;
    match Core.Report.verdicts r with
    | [ v ] -> Core.Bound_audit.verdict_json { v with v_label = "" }
    | vs -> Alcotest.failf "%s: expected one audited label, got %d" label (List.length vs)
  in
  let bare = "degeneracy-3-reconstruct" in
  Alcotest.(check string) "same audit through the tag" (audit bare)
    (audit (bare ^ "[trace=00c0ffee600dcafe]"))

(* ---------- engine integration: anomalies leave evidence ---------- *)

let test_engine_quarantine_leaves_note () =
  let clock = ref 3.0 in
  let fl = Core.Flight.create () in
  let engine =
    Serve.Engine.create ~clock:(fun () -> !clock) ~flight:fl Serve.Engine.default_config
  in
  let c =
    match Serve.Engine.open_conn engine with
    | Ok c -> c
    | Error e -> Alcotest.failf "open_conn: %s" e
  in
  let feed frame =
    let s = Serve.Frame.encode_client frame in
    Serve.Engine.feed_bytes engine c (Bytes.of_string s) ~off:0 ~len:(String.length s)
  in
  feed (Serve.Frame.Hello { version = Serve.Frame.version });
  feed (Serve.Frame.Open { open_id = 1; protocol = "count"; n = 4; trace = 0L });
  Serve.Engine.tick engine;
  let garbage = "\xff\xff\xff\xffgarbage" in
  Serve.Engine.feed_bytes engine c
    (Bytes.of_string garbage)
    ~off:0
    ~len:(String.length garbage);
  Serve.Engine.tick engine;
  Alcotest.(check int) "quarantined" 1 (Serve.Engine.stats engine).Serve.Engine.quarantines;
  let d = Core.Flight.decode (Core.Flight.dump fl) in
  let quarantine_notes =
    List.filter
      (fun i ->
        match i.Core.Flight.i_note with Some ("quarantine", _) -> true | _ -> false)
      d.Core.Flight.d_items
  in
  Alcotest.(check int) "quarantine left a decodable note" 1 (List.length quarantine_notes);
  (match quarantine_notes with
  | [ n ] ->
    Alcotest.(check bool) "note carries the session trace" true (n.Core.Flight.i_trace <> 0L)
  | _ -> ());
  (* the quarantine note is terminal: the session's fate is on record,
     so a boot scan must NOT treat it as mid-flight *)
  match Core.Flight.open_traces d.Core.Flight.d_items with
  | [] -> ()
  | _ :: _ -> Alcotest.fail "quarantine note must count as a terminal mark"

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap and drop counter" `Quick test_ring_wrap_and_drop_counter;
          Alcotest.test_case "tiny capacity clamped" `Quick test_tiny_capacity_is_clamped;
        ] );
      ( "codec",
        [
          Alcotest.test_case "events and notes roundtrip" `Quick test_roundtrip_events_and_notes;
          Alcotest.test_case "truncation never raises" `Quick test_truncated_dump_never_raises;
          Alcotest.test_case "corruption becomes findings" `Quick
            test_corrupt_bytes_become_findings;
          Alcotest.test_case "garbage decodes totally" `Quick test_garbage_decodes_totally;
          Alcotest.test_case "hex trace roundtrip" `Quick test_hex_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dump bytes equal across domain widths" `Quick
            test_dump_bytes_deterministic_across_widths;
        ] );
      ( "evidence",
        [
          Alcotest.test_case "open_traces semantics" `Quick test_open_traces_semantics;
          Alcotest.test_case "trace tag budget-transparent" `Quick
            test_trace_decoration_is_budget_transparent;
          Alcotest.test_case "quarantine leaves a note" `Quick
            test_engine_quarantine_leaves_note;
        ] );
    ]
