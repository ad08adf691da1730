(* The serve stack, end to end but in-process: typed frames pushed
   through [Engine.feed_bytes] on a virtual clock, server frames decoded
   back out of [take_output].  This is the same byte path a socket
   client exercises — the daemon only moves these bytes across a fd.

   The invariants under test are the robustness contract: verdicts equal
   the offline referee's answer, backpressure is explicit, hostile
   connections are quarantined without collateral damage, timeouts force
   sound degraded verdicts, and drain finishes in-flight work. *)

open Refnet_graph

(* ---------- harness ---------- *)

type peer = { c : Serve.Engine.conn_id; d : Serve.Wire.decoder }

let connect engine =
  match Serve.Engine.open_conn engine with
  | Ok c -> { c; d = Serve.Wire.decoder () }
  | Error e -> Alcotest.failf "open_conn: %s" e

let feed engine p frame =
  let s = Serve.Frame.encode_client frame in
  Serve.Engine.feed_bytes engine p.c (Bytes.of_string s) ~off:0 ~len:(String.length s)

let feed_raw engine p s =
  Serve.Engine.feed_bytes engine p.c (Bytes.of_string s) ~off:0 ~len:(String.length s)

(* Decode every server frame currently queued for [p]. *)
let recv engine p =
  let out = Serve.Engine.take_output engine p.c in
  if out <> "" then
    Serve.Wire.push p.d (Bytes.of_string out) ~off:0 ~len:(String.length out);
  let rec go acc =
    match Serve.Wire.next p.d with
    | Serve.Wire.Frame { kind; payload } -> (
      match Serve.Frame.decode_server ~kind payload with
      | Ok f -> go (f :: acc)
      | Error e -> Alcotest.failf "undecodable server frame: %s" e)
    | Serve.Wire.Awaiting -> List.rev acc
    | Serve.Wire.Corrupt e -> Alcotest.failf "corrupt server stream: %s" e
  in
  go []

let pp_server f = Format.asprintf "%a" Serve.Frame.pp_server f

let engine_with ?(cfg = Serve.Engine.default_config) clock =
  Serve.Engine.create ~clock:(fun () -> !clock) cfg

(* Handshake + open; returns the session id and initial credit. *)
let open_session engine p ~protocol ~n =
  feed engine p (Serve.Frame.Hello { version = Serve.Frame.version });
  feed engine p (Serve.Frame.Open { open_id = 1; protocol; n; trace = 0L });
  Serve.Engine.tick engine;
  match recv engine p with
  | [ Serve.Frame.Welcome _; Serve.Frame.Opened { session; credit; _ } ] -> (session, credit)
  | fs ->
    Alcotest.failf "handshake got [%s]" (String.concat "; " (List.map pp_server fs))

(* The Verdict fields the assertions care about, extracted from the
   inline record. *)
type verdict = {
  status : Serve.Frame.status;
  timeout : Serve.Frame.timeout_kind;
  payload : string;
  missing : int;
}

(* Run ticks until a Verdict for [session] shows up (or give up). *)
let await_verdict engine p ~session =
  let rec go budget acc =
    if budget = 0 then Alcotest.fail "no verdict within tick budget"
    else begin
      Serve.Engine.tick engine;
      let frames = recv engine p in
      match
        List.find_map
          (function
            | Serve.Frame.Verdict { session = s; status; timeout; payload; missing; _ }
              when s = session ->
              Some { status; timeout; payload; missing }
            | _ -> None)
          frames
      with
      | Some v -> (v, acc @ frames)
      | None -> go (budget - 1) (acc @ frames)
    end
  in
  go 50 []

let count_msgs protocol g =
  (* node i's uplink message, 1-based ids *)
  Core.Simulator.local_phase protocol g

(* ---------- frame codec ---------- *)

let roundtrip_client f =
  let s = Serve.Frame.encode_client f in
  let d = Serve.Wire.decoder () in
  Serve.Wire.push d (Bytes.of_string s) ~off:0 ~len:(String.length s);
  match Serve.Wire.next d with
  | Serve.Wire.Frame { kind; payload } -> (
    match Serve.Frame.decode_client ~kind payload with
    | Ok f' ->
      Alcotest.(check string)
        "client roundtrip"
        (Format.asprintf "%a" Serve.Frame.pp_client f)
        (Format.asprintf "%a" Serve.Frame.pp_client f')
    | Error e -> Alcotest.failf "decode_client: %s" e)
  | _ -> Alcotest.fail "encode_client did not frame"

let roundtrip_server f =
  let s = Serve.Frame.encode_server f in
  let d = Serve.Wire.decoder () in
  Serve.Wire.push d (Bytes.of_string s) ~off:0 ~len:(String.length s);
  match Serve.Wire.next d with
  | Serve.Wire.Frame { kind; payload } -> (
    match Serve.Frame.decode_server ~kind payload with
    | Ok f' -> Alcotest.(check string) "server roundtrip" (pp_server f) (pp_server f')
    | Error e -> Alcotest.failf "decode_server: %s" e)
  | _ -> Alcotest.fail "encode_server did not frame"

let test_frame_roundtrips () =
  let msg =
    let w = Refnet_bits.Bit_writer.create () in
    Refnet_bits.Codes.write_fixed w ~width:11 0b10110011101;
    Core.Message.of_writer w
  in
  List.iter roundtrip_client
    [
      Serve.Frame.Hello { version = Serve.Frame.version };
      Serve.Frame.Open
        { open_id = 42; protocol = "degeneracy:3"; n = 100; trace = 0x1122334455667788L };
      Serve.Frame.Msg { session = 9; node = 4; payload = msg };
      Serve.Frame.Msg { session = 9; node = 5; payload = Core.Message.empty };
      Serve.Frame.Finish { session = 9 };
      Serve.Frame.Abort { session = 9 };
      Serve.Frame.Ping { token = 123456 };
      Serve.Frame.Bye;
    ];
  List.iter roundtrip_server
    [
      Serve.Frame.Welcome { version = Serve.Frame.version; trace = 0xfeedfaceL };
      Serve.Frame.Opened { open_id = 42; session = 7; credit = 256 };
      Serve.Frame.Credit { session = 7; credit = 16 };
      Serve.Frame.Verdict
        {
          session = 7;
          status = Serve.Frame.Degraded;
          timeout = Serve.Frame.Idle_timeout;
          payload = "nodes=8;degsum=14";
          missing = 3;
          malformed = 1;
          duplicated = 0;
          undetermined = 2;
          trace = 0x0123456789abcdefL;
        };
      Serve.Frame.Rejected
        {
          open_id = 42;
          reason = Serve.Frame.Overloaded;
          retry_after_ms = 250;
          trace = 0L;
          detail = "";
        };
      Serve.Frame.Rejected
        {
          open_id = 43;
          reason = Serve.Frame.Evidence;
          retry_after_ms = 0;
          trace = 0xabcdefL;
          detail = "mid-flight: events=3 absorbed=2 last=open seq=9";
        };
      Serve.Frame.Error { code = Serve.Frame.Slow_consumer; detail = "peer stopped reading" };
      Serve.Frame.Pong { token = 123456 };
    ]

let test_wire_digest_trips () =
  let s = Serve.Frame.encode_client (Serve.Frame.Finish { session = 3 }) in
  let b = Bytes.of_string s in
  (* flip a payload byte: header parses, digest must catch it *)
  let i = Serve.Wire.header_bytes in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  let d = Serve.Wire.decoder () in
  Serve.Wire.push d b ~off:0 ~len:(Bytes.length b);
  match Serve.Wire.next d with
  | Serve.Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "digest mismatch not detected"

(* ---------- registry ---------- *)

let test_registry_specs () =
  List.iter
    (fun spec ->
      match Serve.Registry.lookup ~spec ~n:8 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "spec %S rejected: %s" spec e)
    [ "count"; "forest"; "degeneracy:2"; "bounded:3"; "sketch:7" ];
  (match Serve.Registry.lookup ~spec:"nope" ~n:8 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown spec accepted");
  (match Serve.Registry.max_n "degeneracy:2" with
  | Some cap -> (
    match Serve.Registry.lookup ~spec:"degeneracy:2" ~n:(cap + 1) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "over-cap n accepted")
  | None -> Alcotest.fail "well-formed spec has no cap");
  Alcotest.(check (option int)) "malformed spec has no cap" None (Serve.Registry.max_n "degeneracy:x")

let test_render_graph_small_is_graph6 () =
  let g = Generators.cycle 9 in
  Alcotest.(check string) "graph6 for small orders"
    ("graph:" ^ Gio.to_graph6 g)
    (Serve.Registry.render_graph g)

(* ---------- sessions ---------- *)

let test_verdict_matches_offline_referee () =
  List.iter
    (fun (spec, g) ->
      let n = Graph.order g in
      match Serve.Registry.lookup ~spec ~n with
      | Error e -> Alcotest.failf "lookup %s: %s" spec e
      | Ok (Serve.Registry.Entry { protocol; render }) ->
        let msgs = count_msgs protocol g in
        let expected =
          match Core.Protocol.apply protocol ~n msgs with
          | Core.Verdict.Decided x -> render x
          | _ -> Alcotest.failf "%s: clean offline run must decide" spec
        in
        let clock = ref 0.0 in
        let engine = engine_with clock in
        let p = connect engine in
        let session, _credit = open_session engine p ~protocol:spec ~n in
        Array.iteri
          (fun i m -> feed engine p (Serve.Frame.Msg { session; node = i + 1; payload = m }))
          msgs;
        feed engine p (Serve.Frame.Finish { session });
        let v, _ = await_verdict engine p ~session in
        Alcotest.(check bool) (spec ^ " decided") true (v.status = Serve.Frame.Decided);
        Alcotest.(check string) (spec ^ " payload") expected v.payload;
        let s = Serve.Engine.stats engine in
        Alcotest.(check int) "no quarantines" 0 s.Serve.Engine.quarantines;
        Alcotest.(check int) "no escapes" 0 s.Serve.Engine.quarantine_escapes)
    [
      ("count", Generators.path 6);
      ("forest", Generators.random_tree (Random.State.make [| 11 |]) 10);
      ("sketch:5", Generators.cycle 12);
    ]

let test_credit_backpressure () =
  let clock = ref 0.0 in
  let cfg = { Serve.Engine.default_config with session_credit = 2 } in
  let engine = engine_with ~cfg clock in
  let p = connect engine in
  let g = Generators.path 6 in
  let (Serve.Registry.Entry { protocol; _ }) =
    match Serve.Registry.lookup ~spec:"count" ~n:6 with
    | Ok e -> e
    | Error e -> Alcotest.failf "lookup: %s" e
  in
  let msgs = count_msgs protocol g in
  let session, credit = open_session engine p ~protocol:"count" ~n:6 in
  Alcotest.(check int) "announced window" 2 credit;
  (* stream the whole session under a window of 2, banking grants *)
  let window = ref credit and sent = ref 0 and grants = ref 0 in
  while !sent < Array.length msgs do
    if !window = 0 then begin
      Serve.Engine.tick engine;
      List.iter
        (function
          | Serve.Frame.Credit { session = s; credit } when s = session ->
            grants := !grants + 1;
            window := !window + credit
          | f -> Alcotest.failf "wanted Credit, got %s" (pp_server f))
        (recv engine p);
      if !window = 0 then Alcotest.fail "engine granted no credit"
    end
    else begin
      feed engine p (Serve.Frame.Msg { session; node = !sent + 1; payload = msgs.(!sent) });
      incr sent;
      decr window
    end
  done;
  feed engine p (Serve.Frame.Finish { session });
  let v, _ = await_verdict engine p ~session in
  Alcotest.(check bool) "decided under backpressure" true (v.status = Serve.Frame.Decided);
  Alcotest.(check bool) "credit was granted" true (!grants > 0)

let test_credit_overrun_quarantines () =
  let clock = ref 0.0 in
  let cfg = { Serve.Engine.default_config with session_credit = 2 } in
  let engine = engine_with ~cfg clock in
  let p = connect engine in
  let session, _ = open_session engine p ~protocol:"count" ~n:6 in
  for node = 1 to 3 do
    (* one past the window, without waiting for a grant *)
    feed engine p (Serve.Frame.Msg { session; node; payload = Core.Message.empty })
  done;
  Serve.Engine.tick engine;
  let errs =
    List.filter_map
      (function Serve.Frame.Error { code; _ } -> Some code | _ -> None)
      (recv engine p)
  in
  Alcotest.(check bool) "typed Credit_exceeded" true
    (List.mem Serve.Frame.Credit_exceeded errs);
  Alcotest.(check bool) "connection closed" true (Serve.Engine.wants_close engine p.c);
  Alcotest.(check int) "one quarantine" 1 (Serve.Engine.stats engine).Serve.Engine.quarantines

let rejections_of frames =
  List.filter_map
    (function
      | Serve.Frame.Rejected { open_id; reason; retry_after_ms; _ } ->
        Some (open_id, (reason, retry_after_ms))
      | _ -> None)
    frames

let test_admission_shed () =
  (* admission control runs before spec resolution: at capacity, every
     open sheds Overloaded with the configured retry hint *)
  let clock = ref 0.0 in
  let cfg = { Serve.Engine.default_config with max_sessions = 1; retry_after_ms = 99 } in
  let engine = engine_with ~cfg clock in
  let p1 = connect engine in
  let _session, _ = open_session engine p1 ~protocol:"count" ~n:4 in
  let p2 = connect engine in
  feed engine p2 (Serve.Frame.Hello { version = Serve.Frame.version });
  feed engine p2 (Serve.Frame.Open { open_id = 5; protocol = "count"; n = 4; trace = 0L });
  Serve.Engine.tick engine;
  (match List.assoc_opt 5 (rejections_of (recv engine p2)) with
  | Some (Serve.Frame.Overloaded, 99) -> ()
  | _ -> Alcotest.fail "open 5 must shed Overloaded with the configured retry_after");
  Alcotest.(check int) "shed counted" 1 (Serve.Engine.stats engine).Serve.Engine.sheds

let test_open_rejections_typed () =
  let clock = ref 0.0 in
  let engine = engine_with clock in
  let p = connect engine in
  feed engine p (Serve.Frame.Hello { version = Serve.Frame.version });
  feed engine p (Serve.Frame.Open { open_id = 6; protocol = "nope"; n = 4; trace = 0L });
  feed engine p
    (Serve.Frame.Open { open_id = 7; protocol = "degeneracy:2"; n = 1_000_000; trace = 0L });
  Serve.Engine.tick engine;
  let rejects = rejections_of (recv engine p) in
  (match List.assoc_opt 6 rejects with
  | Some (Serve.Frame.Unknown_protocol, _) -> ()
  | _ -> Alcotest.fail "open 6 must reject Unknown_protocol");
  (match List.assoc_opt 7 rejects with
  | Some (Serve.Frame.Bad_n, _) -> ()
  | _ -> Alcotest.fail "open 7 must reject Bad_n");
  (* typed rejections are not faults: the connection stays usable *)
  Alcotest.(check bool) "conn survives" false (Serve.Engine.wants_close engine p.c);
  Alcotest.(check int) "no quarantine" 0 (Serve.Engine.stats engine).Serve.Engine.quarantines;
  (* each reject reason lands in its own stats counter *)
  let s = Serve.Engine.stats engine in
  Alcotest.(check int) "unknown_protocol counted" 1 s.Serve.Engine.rej_unknown_protocol;
  Alcotest.(check int) "bad_n counted" 1 s.Serve.Engine.rej_bad_n;
  Alcotest.(check int) "evidence untouched" 0 s.Serve.Engine.rej_evidence

(* ---------- session tracing ---------- *)

let hello_trace engine p =
  feed engine p (Serve.Frame.Hello { version = Serve.Frame.version });
  Serve.Engine.tick engine;
  match recv engine p with
  | [ Serve.Frame.Welcome { trace; _ } ] -> trace
  | fs -> Alcotest.failf "hello got [%s]" (String.concat "; " (List.map pp_server fs))

let test_welcome_mints_distinct_traces () =
  let clock = ref 1234.5 in
  let engine = engine_with clock in
  let t1 = hello_trace engine (connect engine) in
  let t2 = hello_trace engine (connect engine) in
  Alcotest.(check bool) "trace ids nonzero" true (t1 <> 0L && t2 <> 0L);
  Alcotest.(check bool) "trace ids distinct" true (t1 <> t2)

let test_verdict_carries_conn_trace () =
  let clock = ref 42.0 in
  let engine = engine_with clock in
  let p = connect engine in
  let conn_trace = hello_trace engine p in
  feed engine p (Serve.Frame.Open { open_id = 1; protocol = "count"; n = 4; trace = 0L });
  Serve.Engine.tick engine;
  let session =
    match recv engine p with
    | [ Serve.Frame.Opened { session; _ } ] -> session
    | fs -> Alcotest.failf "open got [%s]" (String.concat "; " (List.map pp_server fs))
  in
  let g = Generators.path 4 in
  let (Serve.Registry.Entry { protocol; _ }) =
    match Serve.Registry.lookup ~spec:"count" ~n:4 with
    | Ok e -> e
    | Error e -> Alcotest.failf "lookup: %s" e
  in
  Array.iteri
    (fun i m -> feed engine p (Serve.Frame.Msg { session; node = i + 1; payload = m }))
    (count_msgs protocol g);
  feed engine p (Serve.Frame.Finish { session });
  let rec go budget =
    if budget = 0 then Alcotest.fail "no verdict"
    else begin
      Serve.Engine.tick engine;
      match
        List.find_map
          (function
            | Serve.Frame.Verdict { session = s; trace; _ } when s = session -> Some trace
            | _ -> None)
          (recv engine p)
      with
      | Some t -> t
      | None -> go (budget - 1)
    end
  in
  let verdict_trace = go 50 in
  Alcotest.(check bool) "verdict trace = Welcome trace" true (verdict_trace = conn_trace)

let test_evidence_rejection () =
  let clock = ref 7.0 in
  let engine = engine_with clock in
  let doomed = 0x00c0ffee600dcafeL in
  let summary = "mid-flight: events=5 absorbed=3 last=absorb seq=17" in
  Serve.Engine.load_evidence engine [ (doomed, summary) ];
  Alcotest.(check int) "evidence loaded" 1 (Serve.Engine.evidence_count engine);
  let p = connect engine in
  let _ = hello_trace engine p in
  (* resuming the doomed trace id is refused with the crash evidence *)
  feed engine p
    (Serve.Frame.Open { open_id = 3; protocol = "count"; n = 4; trace = doomed });
  Serve.Engine.tick engine;
  (match recv engine p with
  | [ Serve.Frame.Rejected { open_id = 3; reason = Serve.Frame.Evidence; trace; detail; _ } ]
    ->
    Alcotest.(check bool) "reject echoes resumed trace" true (trace = doomed);
    Alcotest.(check string) "reject carries the summary" summary detail
  | fs -> Alcotest.failf "resume got [%s]" (String.concat "; " (List.map pp_server fs)));
  Alcotest.(check int) "evidence reject counted" 1
    (Serve.Engine.stats engine).Serve.Engine.rej_evidence;
  (* a fresh open on the same conn is unaffected *)
  feed engine p (Serve.Frame.Open { open_id = 4; protocol = "count"; n = 4; trace = 0L });
  Serve.Engine.tick engine;
  match recv engine p with
  | [ Serve.Frame.Opened { open_id = 4; _ } ] -> ()
  | fs -> Alcotest.failf "fresh open got [%s]" (String.concat "; " (List.map pp_server fs))

let test_idle_timeout_degrades () =
  let clock = ref 0.0 in
  let cfg = { Serve.Engine.default_config with idle_timeout_s = 0.5; deadline_s = 60. } in
  let engine = engine_with ~cfg clock in
  let p = connect engine in
  let session, _ = open_session engine p ~protocol:"count" ~n:8 in
  let g = Generators.path 8 in
  let (Serve.Registry.Entry { protocol; _ }) =
    match Serve.Registry.lookup ~spec:"count" ~n:8 with
    | Ok e -> e
    | Error e -> Alcotest.failf "lookup: %s" e
  in
  let msgs = count_msgs protocol g in
  for node = 1 to 3 do
    feed engine p (Serve.Frame.Msg { session; node; payload = msgs.(node - 1) })
  done;
  Serve.Engine.tick engine;
  ignore (recv engine p);
  (* the client goes quiet; the session must still end, soundly *)
  clock := !clock +. 1.0;
  let v, _ = await_verdict engine p ~session in
  Alcotest.(check bool) "idle timeout flagged" true (v.timeout = Serve.Frame.Idle_timeout);
  Alcotest.(check bool) "never a clean Decided" true (v.status <> Serve.Frame.Decided);
  Alcotest.(check int) "missing nodes reported" 5 v.missing;
  Alcotest.(check int) "idle timeout counted" 1
    (Serve.Engine.stats engine).Serve.Engine.timeouts_idle

let test_deadline_degrades () =
  let clock = ref 0.0 in
  let cfg = { Serve.Engine.default_config with idle_timeout_s = 60.; deadline_s = 2. } in
  let engine = engine_with ~cfg clock in
  let p = connect engine in
  let session, _ = open_session engine p ~protocol:"count" ~n:8 in
  (* keep trickling so the idle timer never fires; the deadline must *)
  for node = 1 to 2 do
    feed engine p (Serve.Frame.Msg { session; node; payload = Core.Message.empty });
    Serve.Engine.tick engine;
    clock := !clock +. 0.7
  done;
  clock := 2.5;
  let v, _ = await_verdict engine p ~session in
  Alcotest.(check bool) "deadline flagged" true (v.timeout = Serve.Frame.Deadline_timeout);
  Alcotest.(check bool) "never a clean Decided" true (v.status <> Serve.Frame.Decided);
  Alcotest.(check int) "deadline counted" 1
    (Serve.Engine.stats engine).Serve.Engine.timeouts_deadline

let test_abort_is_inconclusive () =
  let clock = ref 0.0 in
  let engine = engine_with clock in
  let p = connect engine in
  let session, _ = open_session engine p ~protocol:"count" ~n:4 in
  feed engine p (Serve.Frame.Abort { session });
  Serve.Engine.tick engine;
  (match recv engine p with
  | [ Serve.Frame.Verdict { status = Serve.Frame.Inconclusive; payload; _ } ] ->
    Alcotest.(check string) "reason" "aborted by client" payload
  | fs -> Alcotest.failf "abort got [%s]" (String.concat "; " (List.map pp_server fs)));
  Alcotest.(check int) "aborted counted" 1 (Serve.Engine.stats engine).Serve.Engine.aborted

let test_quarantine_is_isolated () =
  let clock = ref 0.0 in
  let engine = engine_with clock in
  let hostile = connect engine in
  let honest = connect engine in
  let session, _ = open_session engine honest ~protocol:"count" ~n:6 in
  (* the hostile peer opens a session too, then turns to garbage *)
  let h_session, _ = open_session engine hostile ~protocol:"count" ~n:6 in
  ignore h_session;
  feed_raw engine hostile "\xde\xad\xbe\xef not a frame at all";
  Serve.Engine.tick engine;
  let errs = recv engine hostile in
  Alcotest.(check bool) "hostile got a typed Error" true
    (List.exists (function Serve.Frame.Error _ -> true | _ -> false) errs);
  Alcotest.(check bool) "hostile is closing" true (Serve.Engine.wants_close engine hostile.c);
  (* the honest session still completes, bit-for-bit *)
  let g = Generators.path 6 in
  let (Serve.Registry.Entry { protocol; _ }) =
    match Serve.Registry.lookup ~spec:"count" ~n:6 with
    | Ok e -> e
    | Error e -> Alcotest.failf "lookup: %s" e
  in
  let msgs = count_msgs protocol g in
  Array.iteri
    (fun i m -> feed engine honest (Serve.Frame.Msg { session; node = i + 1; payload = m }))
    msgs;
  feed engine honest (Serve.Frame.Finish { session });
  let v, _ = await_verdict engine honest ~session in
  Alcotest.(check bool) "honest session decided" true (v.status = Serve.Frame.Decided);
  let s = Serve.Engine.stats engine in
  Alcotest.(check int) "one quarantine" 1 s.Serve.Engine.quarantines;
  Alcotest.(check int) "zero escapes" 0 s.Serve.Engine.quarantine_escapes

let test_drain_finishes_inflight () =
  let clock = ref 0.0 in
  let engine = engine_with clock in
  let p = connect engine in
  let session, _ = open_session engine p ~protocol:"count" ~n:4 in
  Serve.Engine.begin_drain engine;
  Alcotest.(check bool) "draining" true (Serve.Engine.draining engine);
  feed engine p (Serve.Frame.Open { open_id = 9; protocol = "count"; n = 4; trace = 0L });
  Serve.Engine.tick engine;
  (match
     List.find_opt
       (function Serve.Frame.Rejected { open_id = 9; _ } -> true | _ -> false)
       (recv engine p)
   with
  | Some (Serve.Frame.Rejected { reason = Serve.Frame.Draining; _ }) -> ()
  | _ -> Alcotest.fail "open during drain must reject Draining");
  Alcotest.(check bool) "not idle while in flight" false (Serve.Engine.idle engine);
  let g = Generators.path 4 in
  let (Serve.Registry.Entry { protocol; _ }) =
    match Serve.Registry.lookup ~spec:"count" ~n:4 with
    | Ok e -> e
    | Error e -> Alcotest.failf "lookup: %s" e
  in
  Array.iteri
    (fun i m -> feed engine p (Serve.Frame.Msg { session; node = i + 1; payload = m }))
    (count_msgs protocol g);
  feed engine p (Serve.Frame.Finish { session });
  let v, _ = await_verdict engine p ~session in
  Alcotest.(check bool) "in-flight session decided during drain" true
    (v.status = Serve.Frame.Decided);
  Alcotest.(check bool) "idle after drain" true (Serve.Engine.idle engine);
  Alcotest.(check int) "drain rejection counted" 1
    (Serve.Engine.stats engine).Serve.Engine.drain_rejections

let test_ping_pong_and_bye () =
  let clock = ref 0.0 in
  let engine = engine_with clock in
  let p = connect engine in
  feed engine p (Serve.Frame.Hello { version = Serve.Frame.version });
  feed engine p (Serve.Frame.Ping { token = 7216 });
  Serve.Engine.tick engine;
  (match recv engine p with
  | [ Serve.Frame.Welcome _; Serve.Frame.Pong { token } ] ->
    Alcotest.(check int) "token echoed" 7216 token
  | fs -> Alcotest.failf "ping got [%s]" (String.concat "; " (List.map pp_server fs)));
  feed engine p Serve.Frame.Bye;
  Serve.Engine.tick engine;
  Alcotest.(check bool) "bye closes" true (Serve.Engine.wants_close engine p.c);
  Alcotest.(check int) "bye is not a quarantine" 0
    (Serve.Engine.stats engine).Serve.Engine.quarantines

let test_version_mismatch_quarantines () =
  let clock = ref 0.0 in
  let engine = engine_with clock in
  let p = connect engine in
  feed engine p (Serve.Frame.Hello { version = Serve.Frame.version + 1 });
  Serve.Engine.tick engine;
  (match recv engine p with
  | [ Serve.Frame.Error { code = Serve.Frame.Protocol_violation; _ } ] -> ()
  | fs -> Alcotest.failf "mismatch got [%s]" (String.concat "; " (List.map pp_server fs)));
  Alcotest.(check bool) "closing" true (Serve.Engine.wants_close engine p.c)

(* ---------- selftest campaign ---------- *)

let test_selftest_clean () =
  let cfg = { Serve.Selftest.default_cfg with sessions = 300; conns = 8 } in
  let o = Serve.Selftest.run cfg in
  (match Serve.Selftest.passed o with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean selftest failed: %s" e);
  Alcotest.(check int) "all decided" 300 o.Serve.Selftest.o_decided

let test_selftest_chaos () =
  List.iter
    (fun faulty ->
      let cfg = { Serve.Selftest.default_cfg with sessions = 400; conns = 16; faulty } in
      let o = Serve.Selftest.run cfg in
      (match Serve.Selftest.passed o with
      | Ok () -> ()
      | Error e -> Alcotest.failf "chaos selftest failed at faulty=%.2f: %s" faulty e);
      let tag = Printf.sprintf "faulty=%.2f" faulty in
      Alcotest.(check bool) (tag ^ ": chaos actually hit") true
        (o.Serve.Selftest.o_quarantines > 0
        || o.Serve.Selftest.o_timeouts_idle > 0
        || o.Serve.Selftest.o_aborted > 0);
      Alcotest.(check int) (tag ^ ": no lies under chaos") 0 o.Serve.Selftest.o_wrong_decided)
    [ 0.05; 0.25; 0.3 ]

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "frame roundtrips" `Quick test_frame_roundtrips;
          Alcotest.test_case "digest trips on flip" `Quick test_wire_digest_trips;
        ] );
      ( "registry",
        [
          Alcotest.test_case "specs and caps" `Quick test_registry_specs;
          Alcotest.test_case "graph rendering" `Quick test_render_graph_small_is_graph6;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "verdict equals offline referee" `Quick
            test_verdict_matches_offline_referee;
          Alcotest.test_case "credit backpressure" `Quick test_credit_backpressure;
          Alcotest.test_case "credit overrun quarantines" `Quick test_credit_overrun_quarantines;
          Alcotest.test_case "admission shed" `Quick test_admission_shed;
          Alcotest.test_case "typed open rejections" `Quick test_open_rejections_typed;
          Alcotest.test_case "idle timeout degrades" `Quick test_idle_timeout_degrades;
          Alcotest.test_case "deadline degrades" `Quick test_deadline_degrades;
          Alcotest.test_case "abort is inconclusive" `Quick test_abort_is_inconclusive;
          Alcotest.test_case "quarantine is isolated" `Quick test_quarantine_is_isolated;
          Alcotest.test_case "drain finishes in-flight" `Quick test_drain_finishes_inflight;
          Alcotest.test_case "ping pong and bye" `Quick test_ping_pong_and_bye;
          Alcotest.test_case "version mismatch quarantines" `Quick
            test_version_mismatch_quarantines;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "welcome mints distinct traces" `Quick
            test_welcome_mints_distinct_traces;
          Alcotest.test_case "verdict carries conn trace" `Quick test_verdict_carries_conn_trace;
          Alcotest.test_case "evidence rejection" `Quick test_evidence_rejection;
        ] );
      ( "selftest",
        [
          Alcotest.test_case "clean campaign" `Quick test_selftest_clean;
          Alcotest.test_case "chaos campaign" `Quick test_selftest_chaos;
        ] );
    ]
