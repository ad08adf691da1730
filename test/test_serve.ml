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
      Serve.Frame.Welcome { version = Serve.Frame.version; trace = 0xfeedfaceL; credit = 256 };
      Serve.Frame.Welcome { version = 2; trace = 0xfeedfaceL; credit = 0 };
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

(* Frame strings are u16-length-prefixed: one byte more is refused
   before anything is written. *)
let test_frame_long_string_refused () =
  let error detail = Serve.Frame.Error { code = Serve.Frame.Internal; detail } in
  roundtrip_server (error (String.make 65535 'x'));
  (match Serve.Frame.encode_server (error (String.make 65536 'x')) with
  | _ -> Alcotest.fail "65536-byte detail encoded"
  | exception Invalid_argument _ -> ());
  let w = Refnet_bits.Byte_io.Writer.create 0 in
  Serve.Frame.write_server w (Serve.Frame.Pong { token = 1 });
  let before = Refnet_bits.Byte_io.Writer.length w in
  (match Serve.Frame.write_server w (error (String.make 65536 'x')) with
  | () -> Alcotest.fail "65536-byte detail written"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "writer left as it was" before (Refnet_bits.Byte_io.Writer.length w)

(* Decode errors travel in Error frames, so their wording is pinned. *)
let test_frame_decode_errors () =
  let open_payload =
    (* the Open frame's payload: what follows its 10-byte header *)
    let s =
      Serve.Frame.encode_client
        (Serve.Frame.Open { open_id = 1; protocol = "count"; n = 8; trace = -1L })
    in
    String.sub s Serve.Wire.header_bytes (String.length s - Serve.Wire.header_bytes)
  in
  let client kind payload =
    match Serve.Frame.decode_client ~kind payload with Ok _ -> "ok" | Error e -> e
  in
  let server kind payload =
    match Serve.Frame.decode_server ~kind payload with Ok _ -> "ok" | Error e -> e
  in
  List.iter
    (fun (want, got) -> Alcotest.(check string) want want got)
    [
      ("ok", client 0x02 open_payload);
      ( "payload truncated: need 4 bytes at offset 15",
        client 0x02 (String.sub open_payload 0 17) );
      ( "payload truncated: need 4 bytes at offset 19",
        client 0x02 (String.sub open_payload 0 20) );
      ("trailing bytes in frame payload", client 0x02 (open_payload ^ "\000"));
      ("unknown client frame kind 0x7E", client 0x7e "");
      ("unknown server frame kind 0x01", server 0x01 "");
      ("unknown error code 9", server 0x86 "\009\000\000");
      ("unknown reject reason 0", server 0x85 "\000\000\000\001\000");
      ("unknown verdict status 3", server 0x84 "\000\000\000\001\003");
      ("unknown timeout kind 7", server 0x84 "\000\000\000\001\000\007");
    ]

(* Seals and wire payloads are byte-identical to the ones recorded
   before the bit layer went word-level (see seal_wire.golden). *)
let golden_payload len =
  let s = ref ((len * 7919) + 1) in
  let w = Refnet_bits.Bit_writer.create () in
  for _ = 1 to len do
    s := ((!s * 1103515245) + 12345) land 0x7fffffff;
    Refnet_bits.Bit_writer.add_bit w ((!s lsr 16) land 1 = 1)
  done;
  Core.Message.of_writer w

let hex_of_bits m =
  let s = Refnet_bits.Bitvec.to_string m in
  String.concat ""
    (List.init ((String.length s + 7) / 8) (fun b ->
         let byte = ref 0 in
         for k = 0 to 7 do
           let i = (8 * b) + k in
           byte := (!byte lsl 1) lor if i < String.length s && s.[i] = '1' then 1 else 0
         done;
         Printf.sprintf "%02x" !byte))

let hex_of_string s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let test_seal_wire_golden () =
  let lines =
    In_channel.with_open_text "seal_wire.golden" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "golden lengths" 10 (List.length lines);
  List.iter
    (fun line ->
      Scanf.sscanf line "%d %d %d %s %s" (fun len n id seal put ->
          let p = golden_payload len in
          let sealed = Core.Message.seal ~n ~id p in
          Alcotest.(check string) (Printf.sprintf "seal bits, len %d" len) seal (hex_of_bits sealed);
          let w = Refnet_bits.Byte_io.Writer.create 0 in
          Refnet_bits.Byte_io.Writer.bits w p;
          Alcotest.(check string)
            (Printf.sprintf "Writer.bits bytes, len %d" len)
            put
            (hex_of_string (Refnet_bits.Byte_io.Writer.take w));
          match Core.Message.unseal ~n ~id sealed with
          | Some q -> Alcotest.(check bool) "unseal" true (Core.Message.equal p q)
          | None -> Alcotest.failf "len %d: seal did not verify" len))
    lines

(* A peer may send a Msg whose last payload byte has its pad bits set.
   The decoded message ignores them: it equals the clean one, and its
   seal still verifies. *)
let test_msg_pad_bits_cleared () =
  let n = 16 and id = 4 in
  let clean =
    let w = Refnet_bits.Bit_writer.create () in
    Refnet_bits.Codes.write_fixed w ~width:11 0b10110011101;
    Core.Message.seal ~n ~id (Core.Message.of_writer w)
  in
  Alcotest.(check int) "pad bits exist" 3 (Core.Message.bits clean mod 8);
  let framed = Serve.Frame.encode_client (Serve.Frame.Msg { session = 2; node = id; payload = clean }) in
  let d = Serve.Wire.decoder () in
  Serve.Wire.push d (Bytes.of_string framed) ~off:0 ~len:(String.length framed);
  match Serve.Wire.next d with
  | Serve.Wire.Frame { kind; payload } -> (
    let dirty = Bytes.of_string payload in
    let last = Bytes.length dirty - 1 in
    Bytes.set dirty last (Char.chr (Char.code (Bytes.get dirty last) lor 0x1f));
    let reframed = Serve.Wire.encode ~kind (Bytes.to_string dirty) in
    let d = Serve.Wire.decoder () in
    Serve.Wire.push d (Bytes.of_string reframed) ~off:0 ~len:(String.length reframed);
    match Serve.Wire.next d with
    | Serve.Wire.Frame { kind; payload } -> (
      match Serve.Frame.decode_client ~kind payload with
      | Ok (Serve.Frame.Msg { payload = m; _ }) ->
        Alcotest.(check bool) "equal to the clean message" true (Core.Message.equal clean m);
        Alcotest.(check bool) "seal verifies" true (Core.Message.unseal ~n ~id m <> None)
      | _ -> Alcotest.fail "dirty Msg did not decode")
    | _ -> Alcotest.fail "dirty Msg did not frame")
  | _ -> Alcotest.fail "clean Msg did not frame"

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

(* A peer that never reads its output is quarantined like any other:
   its sessions are torn down at once (no idle-timeout verdict later),
   the anomaly series and the flight note are recorded, and the buffer
   holds only the Slow_consumer error. *)
let test_slow_consumer_quarantines () =
  let clock = ref 0.0 in
  let metrics = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let flight = Core.Flight.create () in
  let cfg = { Serve.Engine.default_config with max_output_bytes = 256 } in
  let engine = Serve.Engine.create ~clock:(fun () -> !clock) ~metrics ~flight cfg in
  let p = connect engine in
  let trace = hello_trace engine p in
  feed engine p (Serve.Frame.Open { open_id = 1; protocol = "count"; n = 4; trace = 0L });
  Serve.Engine.tick engine;
  ignore (recv engine p);
  for token = 1 to 64 do
    feed engine p (Serve.Frame.Ping { token })
  done;
  Serve.Engine.tick engine;
  (match recv engine p with
  | [ Serve.Frame.Error { code = Serve.Frame.Slow_consumer; _ } ] -> ()
  | fs -> Alcotest.failf "slow consumer got [%s]" (String.concat "; " (List.map pp_server fs)));
  let s = Serve.Engine.stats engine in
  Alcotest.(check int) "one quarantine" 1 s.Serve.Engine.quarantines;
  Alcotest.(check int) "session torn down" 0 s.Serve.Engine.live_sessions;
  Alcotest.(check int) "session aborted" 1 s.Serve.Engine.aborted;
  let anomaly =
    Core.Metrics.series "refnet_serve_anomaly_total"
      [ ("kind", "quarantine"); ("trace_id", Core.Flight.hex_of_trace trace) ]
  in
  Alcotest.(check (option int)) "quarantine anomaly series" (Some 1)
    (List.assoc_opt anomaly (Core.Metrics.snapshot metrics).Core.Metrics.counters);
  let notes =
    List.filter_map
      (function Core.Flight.Note { code; detail; _ } -> Some (code, detail) | _ -> None)
      (Core.Flight.decode (Core.Flight.dump flight)).Core.Flight.d_entries
  in
  Alcotest.(check bool) "flight quarantine note" true
    (List.exists (fun (code, _) -> code = "quarantine") notes);
  (* no verdict was ever sent, so none may be counted later *)
  clock := !clock +. 60.;
  Serve.Engine.tick engine;
  let s = Serve.Engine.stats engine in
  Alcotest.(check int) "no late degraded verdict" 0 s.Serve.Engine.degraded;
  Alcotest.(check int) "no idle timeout" 0 s.Serve.Engine.timeouts_idle

(* A verdict that does not fit the egress buffer is never delivered: the
   connection is quarantined as a slow consumer and the session counts
   as aborted, not decided. *)
let test_undeliverable_verdict_aborts () =
  let clock = ref 0.0 in
  let cfg = { Serve.Engine.default_config with max_output_bytes = 48 } in
  let engine = engine_with ~cfg clock in
  let p = connect engine in
  ignore (hello_trace engine p);
  feed engine p (Serve.Frame.Open { open_id = 1; protocol = "count"; n = 4; trace = 0L });
  Serve.Engine.tick engine;
  let session =
    match recv engine p with
    | [ Serve.Frame.Opened { session; _ } ] -> session
    | fs -> Alcotest.failf "open got [%s]" (String.concat "; " (List.map pp_server fs))
  in
  let (Serve.Registry.Entry { protocol; _ }) =
    match Serve.Registry.lookup ~spec:"count" ~n:4 with
    | Ok e -> e
    | Error e -> Alcotest.failf "lookup: %s" e
  in
  Array.iteri
    (fun i m -> feed engine p (Serve.Frame.Msg { session; node = i + 1; payload = m }))
    (count_msgs protocol (Generators.path 4));
  feed engine p (Serve.Frame.Finish { session });
  Serve.Engine.tick engine;
  (match recv engine p with
  | [ Serve.Frame.Error { code = Serve.Frame.Slow_consumer; _ } ] -> ()
  | fs -> Alcotest.failf "overflowing verdict got [%s]" (String.concat "; " (List.map pp_server fs)));
  let s = Serve.Engine.stats engine in
  Alcotest.(check int) "not decided" 0 s.Serve.Engine.decided;
  Alcotest.(check int) "aborted" 1 s.Serve.Engine.aborted;
  Alcotest.(check int) "one quarantine" 1 s.Serve.Engine.quarantines

(* refnet_serve_queue_depth reports the backlog the last tick absorbed. *)
let test_queue_depth_gauge () =
  let clock = ref 0.0 in
  let metrics = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let engine =
    Serve.Engine.create ~clock:(fun () -> !clock) ~metrics Serve.Engine.default_config
  in
  let p = connect engine in
  let session, _ = open_session engine p ~protocol:"count" ~n:8 in
  for node = 1 to 5 do
    feed engine p (Serve.Frame.Msg { session; node; payload = Core.Message.empty })
  done;
  Serve.Engine.tick engine;
  let depth = Core.Metrics.Gauge.gauge metrics "refnet_serve_queue_depth" in
  Alcotest.(check (float 0.)) "backlog absorbed by the tick" 5. (Core.Metrics.Gauge.value depth);
  Serve.Engine.tick engine;
  Alcotest.(check (float 0.)) "nothing queued" 0. (Core.Metrics.Gauge.value depth)

(* ---------- engine golden ---------- *)

(* One scripted exchange over seven connections on a virtual clock that
   walks every client frame kind through every engine outcome: each
   typed reject, each quarantine cause, idle and deadline timeouts, a
   client abort, late frames, a degraded finish, Bye and a vanished
   peer with live sessions, and a drain.  One tick has five dirty
   sessions, so the fold runs on the pool.  Everything observable is
   rendered to lines and pinned by serve_engine.golden: each
   connection's output bytes, the stats, the refnet_serve_* counters,
   the flight dump and the jsonl trace. *)
let engine_golden_lines ~domains =
  let clock = ref 100.0 in
  let cfg =
    {
      Serve.Engine.default_config with
      max_sessions = 7;
      max_sessions_per_conn = 4;
      session_credit = 4;
      idle_timeout_s = 1.0;
      deadline_s = 3.0;
      retry_after_ms = 77;
      domains = Some domains;
    }
  in
  let metrics = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let flight = Core.Flight.create () in
  let trace_buf = Buffer.create 4096 in
  let sink =
    Core.Trace.Emit_session
      (fun session ev ->
        Buffer.add_string trace_buf (Core.Trace.json_of_event ?session ev);
        Buffer.add_char trace_buf '\n')
  in
  let engine =
    Serve.Engine.create ~clock:(fun () -> !clock) ~trace:sink ~metrics ~flight cfg
  in
  let outs = ref [] in
  let conn name =
    let p = connect engine in
    outs := (name, p.c, Buffer.create 256) :: !outs;
    p
  in
  let collect () =
    List.iter
      (fun (_, c, b) -> Buffer.add_string b (Serve.Engine.take_output engine c))
      !outs
  in
  let tick () =
    Serve.Engine.tick engine;
    collect ()
  in
  let send p f =
    feed engine p f;
    collect ()
  in
  let hello p = send p (Serve.Frame.Hello { version = 2 }) in
  let open_ ?(trace = 0L) p open_id protocol n =
    send p (Serve.Frame.Open { open_id; protocol; n; trace })
  in
  let msgs_of spec g =
    match Serve.Registry.lookup ~spec ~n:(Graph.order g) with
    | Ok (Serve.Registry.Entry { protocol; _ }) -> count_msgs protocol g
    | Error e -> Alcotest.failf "lookup: %s" e
  in
  let c4 = msgs_of "count" (Generators.path 4) in
  let c8 = msgs_of "count" (Generators.path 8) in
  let f5 = msgs_of "forest" (Generators.random_tree (Random.State.make [| 5 |]) 5) in
  let msg p session msgs node =
    send p (Serve.Frame.Msg { session; node; payload = msgs.(node - 1) })
  in
  let finish p session = send p (Serve.Frame.Finish { session }) in
  let a = conn "A" and b = conn "B" and c = conn "C" and d = conn "D" in
  let e = conn "E" and f = conn "F" and g = conn "G" in
  List.iter hello [ a; b; c; d ];
  send e (Serve.Frame.Hello { version = Serve.Frame.version + 1 });
  send a (Serve.Frame.Ping { token = 7 });
  (* admission: sessions 1-4 on A, 5-6 on B, 7 on C fill the cap of 7 *)
  for i = 1 to 4 do
    open_ a i "count" 4
  done;
  open_ a 5 "count" 4 (* Session_limit *);
  open_ b 6 "nosuch" 4 (* Unknown_protocol *);
  open_ b 7 "count" 0 (* Bad_n *);
  open_ b 8 "forest" 5;
  open_ b 9 "count" 4;
  open_ c 10 "count" 4;
  open_ d 11 "count" 4 (* Overloaded *);
  let doomed = 0x00c0ffee600dcafeL in
  Serve.Engine.load_evidence engine [ (doomed, "mid-flight: golden") ];
  open_ ~trace:doomed d 12 "count" 4 (* Evidence *);
  tick ();
  (* five dirty sessions in one tick *)
  List.iter (msg a 1 c4) [ 1; 2; 3; 4 ];
  finish a 1;
  List.iter (msg a 2 c4) [ 1; 2; 3; 4 ];
  finish a 2;
  List.iter (msg a 3 c4) [ 1; 2; 3 ];
  List.iter (msg a 4 c4) [ 1; 2 ];
  List.iter (msg b 5 f5) [ 1; 2; 3 ];
  tick ();
  (* late frames: gone sessions, and a session already finishing *)
  msg a 1 c4 1;
  finish a 2;
  msg a 3 c4 4;
  finish a 3;
  msg a 3 c4 4;
  finish a 3;
  (* session 5 finishes with node 5 missing *)
  msg b 5 f5 4;
  finish b 5;
  send b (Serve.Frame.Abort { session = 6 });
  send b (Serve.Frame.Abort { session = 6 });
  (* C touches A's session: C is quarantined and its session 7 torn down *)
  msg c 4 c4 3;
  tick ();
  (* credit overrun on D, wire corruption on F, an unknown kind on G *)
  open_ d 13 "count" 8;
  List.iter (msg d 8 c8) [ 1; 2; 3; 4; 5 ];
  hello f;
  open_ f 14 "count" 4;
  feed_raw engine f "\xde\xad\xbe\xef not a frame at all";
  collect ();
  hello g;
  open_ g 15 "count" 4;
  feed_raw engine g (Serve.Wire.encode ~kind:0x7e "");
  collect ();
  tick ();
  (* session 4 has been quiet since its two messages *)
  clock := !clock +. 1.5;
  tick ();
  (* session 11 keeps trickling, so its deadline fires, not idle *)
  open_ b 16 "count" 8;
  tick ();
  for node = 1 to 5 do
    clock := !clock +. 0.7;
    msg b 11 c8 node;
    tick ()
  done;
  (* drain: in-flight session 12 decides, new opens are refused *)
  open_ a 17 "count" 4;
  open_ b 18 "count" 4;
  open_ a 19 "count" 4;
  tick ();
  Serve.Engine.begin_drain engine;
  open_ a 20 "count" 4 (* Draining *);
  List.iter (msg a 12 c4) [ 1; 2; 3; 4 ];
  finish a 12;
  tick ();
  (* Bye abandons B's session 13; A vanishes with session 14 live *)
  send b Serve.Frame.Bye;
  Serve.Engine.close_conn engine a.c;
  tick ();
  let out_lines =
    List.rev_map
      (fun (name, _, buf) ->
        Printf.sprintf "out %s %s" name (hex_of_string (Buffer.contents buf)))
      !outs
  in
  let s = Serve.Engine.stats engine in
  let stat_lines =
    List.map
      (fun (k, v) -> Printf.sprintf "stat %s %d" k v)
      Serve.Engine.
        [
          ("conns_opened", s.conns_opened);
          ("sessions_opened", s.sessions_opened);
          ("decided", s.decided);
          ("degraded", s.degraded);
          ("inconclusive", s.inconclusive);
          ("aborted", s.aborted);
          ("sheds", s.sheds);
          ("drain_rejections", s.drain_rejections);
          ("rej_unknown_protocol", s.rej_unknown_protocol);
          ("rej_bad_n", s.rej_bad_n);
          ("rej_session_limit", s.rej_session_limit);
          ("rej_evidence", s.rej_evidence);
          ("quarantines", s.quarantines);
          ("quarantine_escapes", s.quarantine_escapes);
          ("late_frames", s.late_frames);
          ("timeouts_idle", s.timeouts_idle);
          ("timeouts_deadline", s.timeouts_deadline);
          ("frames", s.frames);
          ("bytes_in", s.bytes_in);
          ("live_sessions", s.live_sessions);
        ]
  in
  let prefix = "refnet_serve_" in
  let counter_lines =
    List.filter_map
      (fun (name, v) ->
        if String.length name >= String.length prefix
           && String.sub name 0 (String.length prefix) = prefix
        then Some (Printf.sprintf "counter %s %d" name v)
        else None)
      (Core.Metrics.snapshot metrics).Core.Metrics.counters
  in
  let trace_lines =
    Buffer.contents trace_buf
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> "trace " ^ l)
  in
  out_lines @ stat_lines @ counter_lines
  @ [ "flight " ^ hex_of_string (Core.Flight.dump flight) ]
  @ trace_lines

let test_engine_golden () =
  let golden =
    In_channel.with_open_text "serve_engine.golden" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  List.iter
    (fun domains ->
      Alcotest.(check (list string))
        (Printf.sprintf "engine transcript at domains=%d" domains)
        golden
        (engine_golden_lines ~domains))
    [ 1; 4 ]

(* ---------- client session machine, no socket ---------- *)

module Session = Serve.Client.Session

let deliveries spec g =
  let n = Graph.order g in
  match Serve.Registry.lookup ~spec ~n with
  | Error e -> Alcotest.failf "lookup %s: %s" spec e
  | Ok (Serve.Registry.Entry { protocol; _ }) ->
    Array.to_list (Array.mapi (fun i m -> (i + 1, m)) (count_msgs protocol g))

(* Every flight the machine hands out before it waits for the server,
   each as a string of frame letters: O(pen), M(sg), F(inish). *)
let flights s =
  let letters flight =
    let d = Serve.Wire.decoder () in
    Serve.Wire.push d (Bytes.of_string flight) ~off:0 ~len:(String.length flight);
    let rec go acc =
      match Serve.Wire.next d with
      | Serve.Wire.Awaiting -> String.concat "" (List.rev acc)
      | Serve.Wire.Corrupt e -> Alcotest.failf "corrupt flight: %s" e
      | Serve.Wire.Frame { kind; payload } -> (
        match Serve.Frame.decode_client ~kind payload with
        | Ok (Serve.Frame.Open _) -> go ("O" :: acc)
        | Ok (Serve.Frame.Msg { session = 5; _ }) -> go ("M" :: acc)
        | Ok (Serve.Frame.Finish { session = 5 }) -> go ("F" :: acc)
        | Ok f -> Alcotest.failf "unexpected client frame %a" Serve.Frame.pp_client f
        | Error e -> Alcotest.failf "undecodable flight: %s" e)
    in
    go []
  in
  let rec all () =
    match Session.flight s with Some f -> letters f :: all () | None -> []
  in
  all ()

let goes_on what r =
  match r with
  | None -> ()
  | Some (Ok _) -> Alcotest.failf "%s ended the session with a verdict" what
  | Some (Error e) -> Alcotest.failf "%s ended the session: %s" what e

(* A session at [credit], past its Open and Opened (session id 5). *)
let opened_session ~credit msgs =
  let s = Session.start ~open_id:1 ~protocol:"count" ~n:(List.length msgs) msgs in
  Alcotest.(check (list string)) "Open travels alone" [ "O" ] (flights s);
  goes_on "Opened" (Session.recv s (Serve.Frame.Opened { open_id = 1; session = 5; credit }));
  s

let credit s k = goes_on "Credit" (Session.recv s (Serve.Frame.Credit { session = 5; credit = k }))

let test_session_two_flights () =
  List.iter
    (fun c ->
      let s = opened_session ~credit:c (deliveries "count" (Generators.cycle 8)) in
      Alcotest.(check (list string))
        (Printf.sprintf "credit %d: 8 Msg and Finish in one flight" c)
        [ "MMMMMMMMF" ] (flights s);
      Alcotest.(check (list string)) "then it waits" [] (flights s))
    [ 9; 256 ]

let test_session_window_breaks_flights () =
  let s = opened_session ~credit:4 (deliveries "count" (Generators.cycle 8)) in
  Alcotest.(check (list string)) "window 4" [ "MMMM" ] (flights s);
  credit s 1;
  Alcotest.(check (list string)) "one more credit" [ "M" ] (flights s);
  credit s 2;
  Alcotest.(check (list string)) "two more" [ "MM" ] (flights s);
  credit s 4;
  Alcotest.(check (list string)) "the last Msg, then Finish without credit" [ "MF" ]
    (flights s)

let test_session_large_frames_one_per_flight () =
  let msgs = deliveries "sketch:7" (Generators.cycle 128) in
  let s = opened_session ~credit:256 msgs in
  Alcotest.(check (list string))
    "one 1.7 KB Msg per flight, then Finish"
    (List.init 128 (fun _ -> "M") @ [ "F" ])
    (flights s)

let test_session_early_verdict () =
  let s = opened_session ~credit:4 (deliveries "count" (Generators.cycle 8)) in
  Alcotest.(check (list string)) "window 4" [ "MMMM" ] (flights s);
  (match
     Session.recv s
       (Serve.Frame.Verdict
          {
            session = 5;
            status = Serve.Frame.Degraded;
            timeout = Serve.Frame.Deadline_timeout;
            payload = "p";
            missing = 4;
            malformed = 0;
            duplicated = 0;
            undetermined = 0;
            trace = 9L;
          })
   with
  | Some (Ok v) ->
    Alcotest.(check bool) "deadline verdict" true
      (v.Serve.Client.timeout = Serve.Frame.Deadline_timeout && v.Serve.Client.missing = 4)
  | _ -> Alcotest.fail "a verdict while waiting for credit must end the session");
  credit s 4;
  Alcotest.(check (list string)) "nothing after the end" [] (flights s)

let test_session_error_strings () =
  let msgs = deliveries "count" (Generators.cycle 8) in
  let ends ~opened frame =
    let s =
      if opened then opened_session ~credit:4 msgs
      else begin
        let s = Session.start ~open_id:1 ~protocol:"count" ~n:8 msgs in
        ignore (flights s);
        s
      end
    in
    match Session.recv s frame with
    | Some (Error e) -> e
    | Some (Ok _) -> "verdict"
    | None -> "goes on"
  in
  let rejected detail =
    Serve.Frame.Rejected
      { open_id = 1; reason = Serve.Frame.Overloaded; retry_after_ms = 250; trace = 0L; detail }
  in
  let error = Serve.Frame.Error { code = Serve.Frame.Corrupt_frame; detail = "bad digest" } in
  let verdict session =
    Serve.Frame.Verdict
      {
        session;
        status = Serve.Frame.Decided;
        timeout = Serve.Frame.No_timeout;
        payload = "";
        missing = 0;
        malformed = 0;
        duplicated = 0;
        undetermined = 0;
        trace = 0L;
      }
  in
  List.iter
    (fun (tag, opened, frame, want) ->
      Alcotest.(check string) tag want (ends ~opened frame))
    [
      ("rejected", false, rejected "", "rejected: overloaded (retry after 250 ms)");
      ( "rejected with evidence",
        false,
        rejected "mid-flight",
        "rejected: overloaded (retry after 250 ms): mid-flight" );
      ("error before Opened", false, error, "server error corrupt-frame: bad digest");
      ("error mid-session", true, error, "server error corrupt-frame: bad digest");
      ( "another open's Opened",
        false,
        Serve.Frame.Opened { open_id = 2; session = 5; credit = 4 },
        "expected Opened" );
      ( "another session's Credit",
        true,
        Serve.Frame.Credit { session = 6; credit = 1 },
        "unexpected frame mid-session" );
      ("another session's Verdict", true, verdict 6, "unexpected frame mid-session");
      ("Welcome mid-session", true, Serve.Frame.Welcome { version = 2; trace = 0L; credit = 0 },
        "unexpected frame mid-session");
      ("own Verdict", true, verdict 5, "verdict");
    ]

(* ---------- wire v3: sessions addressed by open_id ---------- *)

(* A v3 handshake; returns the credit Welcome announced. *)
let hello_v3 engine p =
  feed engine p (Serve.Frame.Hello { version = 3 });
  match recv engine p with
  | [ Serve.Frame.Welcome { version = 3; credit; _ } ] -> credit
  | fs -> Alcotest.failf "v3 hello got [%s]" (String.concat "; " (List.map pp_server fs))

(* Every flight [s] hands out goes to the engine in one [feed_bytes];
   then one tick, and every frame of one [take_output] goes to [s]. *)
let one_round_trip engine p s =
  let rec drain acc = match Session.flight s with Some f -> drain (acc ^ f) | None -> acc in
  feed_raw engine p (drain "");
  Serve.Engine.tick engine;
  List.find_map (Session.recv s) (recv engine p)

let test_v3_count_is_one_flight () =
  let msgs = deliveries "count" (Generators.cycle 8) in
  let engine = engine_with (ref 0.0) in
  let p = connect engine in
  let credit = hello_v3 engine p in
  let start () = Session.start ~open_id:5 ~credit ~protocol:"count" ~n:8 msgs in
  Alcotest.(check (list string)) "Open, 8 Msg and Finish in one flight" [ "OMMMMMMMMF" ]
    (flights (start ()));
  (match one_round_trip engine p (start ()) with
  | Some (Ok v) ->
    Alcotest.(check bool) "decided" true (v.Serve.Client.status = Serve.Frame.Decided);
    Alcotest.(check string) "count verdict" "nodes=8;degsum=16" v.Serve.Client.payload
  | Some (Error e) -> Alcotest.failf "session failed: %s" e
  | None -> Alcotest.fail "no verdict after one feed, one tick and one read");
  Alcotest.(check int) "nothing late" 0 (Serve.Engine.stats engine).Serve.Engine.late_frames

let test_v3_rejected_open_drops_pipeline () =
  let msgs = deliveries "count" (Generators.cycle 8) in
  let engine = engine_with (ref 0.0) in
  let p = connect engine in
  let credit = hello_v3 engine p in
  let doomed = Session.start ~open_id:1 ~credit ~protocol:"nosuch" ~n:8 msgs in
  (match one_round_trip engine p doomed with
  | Some (Error e) ->
    Alcotest.(check string) "typed reject" "rejected: unknown-protocol (retry after 250 ms)" e
  | _ -> Alcotest.fail "a pipelined open of an unknown protocol must end rejected");
  let s = Serve.Engine.stats engine in
  Alcotest.(check int) "8 Msg and Finish dropped as late" 9 s.Serve.Engine.late_frames;
  Alcotest.(check int) "no quarantine" 0 s.Serve.Engine.quarantines;
  (match one_round_trip engine p (Session.start ~open_id:2 ~credit ~protocol:"count" ~n:8 msgs) with
  | Some (Ok v) -> Alcotest.(check bool) "next open decides" true (v.Serve.Client.status = Serve.Frame.Decided)
  | _ -> Alcotest.fail "the next open must decide")

let test_v3_live_open_id_reuse_quarantines () =
  let engine = engine_with (ref 0.0) in
  let p = connect engine in
  ignore (hello_v3 engine p);
  let open_ id = feed engine p (Serve.Frame.Open { open_id = id; protocol = "count"; n = 4; trace = 0L }) in
  (* reuse after the session ended is fine *)
  open_ 1;
  feed engine p (Serve.Frame.Abort { session = 1 });
  open_ 1;
  Serve.Engine.tick engine;
  (match recv engine p with
  | [ Serve.Frame.Opened { session = 1; _ }; Serve.Frame.Verdict { session = 1; _ };
      Serve.Frame.Opened { session = 1; _ } ] -> ()
  | fs -> Alcotest.failf "open, abort, open got [%s]" (String.concat "; " (List.map pp_server fs)));
  open_ 1;
  (match recv engine p with
  | [ Serve.Frame.Error { code = Serve.Frame.Protocol_violation; _ } ] -> ()
  | fs -> Alcotest.failf "live reuse got [%s]" (String.concat "; " (List.map pp_server fs)));
  Alcotest.(check bool) "closing" true (Serve.Engine.wants_close engine p.c);
  Alcotest.(check int) "one quarantine" 1 (Serve.Engine.stats engine).Serve.Engine.quarantines

(* A second Hello may not switch versions: a live v2 session would lose
   its address. *)
let test_hello_cannot_switch_version () =
  let engine = engine_with (ref 0.0) in
  let p = connect engine in
  feed engine p (Serve.Frame.Hello { version = 2 });
  feed engine p (Serve.Frame.Open { open_id = 7; protocol = "count"; n = 2; trace = 0L });
  ignore (recv engine p);
  feed engine p (Serve.Frame.Hello { version = 3 });
  (match recv engine p with
  | [ Serve.Frame.Error { code = Serve.Frame.Protocol_violation; _ } ] -> ()
  | fs -> Alcotest.failf "switch got [%s]" (String.concat "; " (List.map pp_server fs)));
  Alcotest.(check int) "session aborted, not orphaned" 0
    (Serve.Engine.stats engine).Serve.Engine.live_sessions

(* A connect that never says Hello is closed at the idle timeout with a
   typed error, counted apart from sheds and quarantines. *)
let test_idle_connect_closes () =
  let clock = ref 0.0 in
  let metrics = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let cfg = { Serve.Engine.default_config with idle_timeout_s = 0.5 } in
  let engine = Serve.Engine.create ~clock:(fun () -> !clock) ~metrics cfg in
  let silent = connect engine and greeted = connect engine in
  ignore (hello_trace engine greeted);
  clock := 0.4;
  Serve.Engine.tick engine;
  Alcotest.(check bool) "open before the timeout" false (Serve.Engine.wants_close engine silent.c);
  clock := 0.6;
  Serve.Engine.tick engine;
  (match recv engine silent with
  | [ Serve.Frame.Error { code = Serve.Frame.Protocol_violation; _ } ] -> ()
  | fs -> Alcotest.failf "silent connect got [%s]" (String.concat "; " (List.map pp_server fs)));
  Alcotest.(check bool) "silent connect closes" true (Serve.Engine.wants_close engine silent.c);
  Alcotest.(check bool) "greeted connect stays" false (Serve.Engine.wants_close engine greeted.c);
  let s = Serve.Engine.stats engine in
  Alcotest.(check int) "one handshake timeout" 1 s.Serve.Engine.handshake_timeouts;
  Alcotest.(check int) "not a quarantine" 0 s.Serve.Engine.quarantines;
  Alcotest.(check int) "not a shed" 0 s.Serve.Engine.sheds;
  Alcotest.(check (option int)) "exported" (Some 1)
    (List.assoc_opt "refnet_serve_handshake_timeouts_total"
       (Core.Metrics.snapshot metrics).Core.Metrics.counters)

(* ---------- receive path: views, copies and allocation ---------- *)

let sketch_deliveries ~n = deliveries "sketch:7" (Generators.random_tree (Random.State.make [| 27; n |]) n)

let encode_all frames = String.concat "" (List.map Serve.Frame.encode_client frames)

(* Bytes allocated by [f ()] on this domain, counted in full. *)
let allocated f =
  let r, words = Core.Metrics.allocated_words f in
  (r, words *. float_of_int (Sys.word_size / 8))

let test_encode_client_allocation () =
  let msgs = sketch_deliveries ~n:128 in
  let frames =
    Array.of_list (List.map (fun (node, payload) -> Serve.Frame.Msg { session = 1; node; payload }) msgs)
  in
  let encoded, bytes = allocated (fun () -> Array.map Serve.Frame.encode_client frames) in
  let returned = Array.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f B allocated for %d B of frames (bound 1.2x)" bytes returned)
    true
    (bytes <= 1.2 *. float_of_int returned)

(* Two Msg frames arrive in one push and are decoded in place; the next
   push first compacts the decoder buffer (a partial frame is left at a
   non-zero offset) and then grows it past its 4 KiB start.  What the
   frames decoded into must not change, and the engine, which absorbs
   only at the next tick, must still reach the offline verdict. *)
let test_views_never_alias () =
  let n = 32 in
  let msgs = sketch_deliveries ~n in
  let msg (node, payload) = Serve.Frame.Msg { session = 1; node; payload } in
  let first = encode_all (List.map msg (List.filteri (fun i _ -> i < 2) msgs)) in
  let rest = encode_all (List.map msg (List.filteri (fun i _ -> i >= 2) msgs)) in
  let cut = 100 in
  let push d s = Serve.Wire.push d (Bytes.of_string s) ~off:0 ~len:(String.length s) in
  let d = Serve.Wire.decoder () in
  push d (first ^ String.sub rest 0 cut);
  let decoded =
    List.init 2 (fun _ ->
        match Serve.Wire.next_view d with
        | Serve.Wire.Frame { kind; payload } -> (
          match Serve.Frame.decode_client_view ~kind payload with
          | Ok (Serve.Frame.Msg { payload; _ }) -> payload
          | _ -> Alcotest.fail "expected a Msg frame")
        | _ -> Alcotest.fail "expected a frame")
  in
  let copies = List.map Refnet_bits.Bitvec.copy decoded in
  Alcotest.(check bool) "rest awaits" true (Serve.Wire.next_view d = Serve.Wire.Awaiting);
  Alcotest.(check bool) "rest outgrows the buffer" true (String.length rest > 8192);
  push d (String.sub rest cut (String.length rest - cut));
  List.iter2
    (fun a b -> Alcotest.(check bool) "decoded payload unchanged" true (Core.Message.equal a b))
    decoded copies;
  (* the same byte stream through the engine *)
  let clock = ref 0.0 in
  let engine = engine_with clock in
  let p = connect engine in
  let session, credit = open_session engine p ~protocol:"sketch:7" ~n in
  Alcotest.(check int) "session id" 1 session;
  Alcotest.(check bool) "credit covers the session" true (credit >= n);
  feed_raw engine p (first ^ String.sub rest 0 cut);
  feed_raw engine p (String.sub rest cut (String.length rest - cut));
  feed engine p (Serve.Frame.Finish { session });
  let v, _ = await_verdict engine p ~session in
  let (Serve.Registry.Entry { protocol; render }) =
    match Serve.Registry.lookup ~spec:"sketch:7" ~n with Ok e -> e | Error e -> Alcotest.fail e
  in
  let expected =
    match Core.Protocol.apply protocol ~n (Array.of_list (List.map snd msgs)) with
    | Core.Verdict.Decided x -> render x
    | _ -> Alcotest.fail "clean offline run must decide"
  in
  Alcotest.(check bool) "decided" true (v.status = Serve.Frame.Decided);
  Alcotest.(check string) "offline verdict" expected v.payload

(* Engine-side bytes per n=128 sketch session: [Client.Session] flights
   fed to [feed_bytes], then [tick] and [take_output], each call counted
   from an empty minor heap; decoding the server's frames and the client
   machine are outside the windows. *)
let test_engine_allocation_per_session () =
  let n = 128 and sessions = 20 in
  let msgs = sketch_deliveries ~n in
  let clock = ref 0.0 in
  let engine = engine_with clock in
  let p = connect engine in
  feed engine p (Serve.Frame.Hello { version = Serve.Frame.version });
  Serve.Engine.tick engine;
  ignore (recv engine p);
  (* what a window costs by itself; the least of five, as one window
     in a few dozen runs reads a one-off runtime count *)
  let overhead = List.fold_left min infinity (List.init 5 (fun _ -> snd (allocated ignore))) in
  let engine_side = ref 0.0 in
  let engine_call f =
    let r, bytes = allocated f in
    engine_side := !engine_side +. (bytes -. overhead);
    r
  in
  let run open_id =
    let s = Session.start ~open_id ~protocol:"sketch:7" ~n msgs in
    let rec go budget =
      if budget = 0 then Alcotest.fail "no verdict within budget";
      match Session.flight s with
      | Some f ->
        let b = Bytes.unsafe_of_string f in
        engine_call (fun () -> Serve.Engine.feed_bytes engine p.c b ~off:0 ~len:(Bytes.length b));
        go budget
      | None -> (
        let out = engine_call (fun () -> Serve.Engine.tick engine; Serve.Engine.take_output engine p.c) in
        Serve.Wire.push p.d (Bytes.unsafe_of_string out) ~off:0 ~len:(String.length out);
        let rec frames () =
          match Serve.Wire.next p.d with
          | Serve.Wire.Frame { kind; payload } -> (
            match Serve.Frame.decode_server ~kind payload with
            | Ok f -> ( match Session.recv s f with Some r -> Some r | None -> frames ())
            | Error e -> Alcotest.failf "undecodable server frame: %s" e)
          | Serve.Wire.Awaiting -> None
          | Serve.Wire.Corrupt e -> Alcotest.failf "corrupt server stream: %s" e
        in
        match frames () with
        | Some (Ok v) -> Alcotest.(check bool) "decided" true (v.Serve.Client.status = Serve.Frame.Decided)
        | Some (Error e) -> Alcotest.failf "session failed: %s" e
        | None -> go (budget - 1))
    in
    go 50
  in
  run 1;
  engine_side := 0.0;
  for i = 2 to sessions + 1 do
    run i
  done;
  let per_session = !engine_side /. float_of_int sessions in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f B per session (bound 450 kB)" per_session)
    true (per_session <= 450_000.)

(* ---------- selftest campaign ---------- *)

let test_selftest_clean () =
  let cfg = { Serve.Selftest.default_cfg with sessions = 300; conns = 8 } in
  let o = Serve.Selftest.run cfg in
  (match Serve.Selftest.passed o with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean selftest failed: %s" e);
  Alcotest.(check int) "all decided" 300 o.Serve.Selftest.o_stats.Serve.Engine.decided

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
        (let s = o.Serve.Selftest.o_stats in
         s.Serve.Engine.quarantines > 0
         || s.Serve.Engine.timeouts_idle > 0
         || s.Serve.Engine.aborted > 0);
      Alcotest.(check int) (tag ^ ": no lies under chaos") 0 o.Serve.Selftest.o_wrong_decided)
    [ 0.05; 0.25; 0.3 ]

(* The selftest's whole outcome, pinned: its JSON minus the wall-clock
   fields, plus the engine's frame, byte, connection and session counts.
   Every figure depends on which bytes reached [Engine.feed_bytes] before
   each tick, so a change to how the selftest builds or paces its client
   frames shows here.  Each run must print the same line at pool widths
   1 and 4.  Credit 3 breaks count sessions into several flights.  The
   v2 rows send Open alone; the v3 rows pipeline it with the first
   window. *)
let test_selftest_transcript () =
  List.iter (fun (version, rows) -> List.iter
    (fun (protocol, n, sessions, conns, faulty, seed, credit, want) ->
      List.iter
        (fun domains ->
          let cfg =
            { Serve.Selftest.default_cfg with protocol; n; sessions; conns; faulty; seed }
          in
          let engine_cfg =
            {
              Serve.Selftest.default_engine_cfg with
              Serve.Engine.session_credit = credit;
              domains = Some domains;
            }
          in
          let flight = Core.Flight.create ~capacity:65536 () in
          let o = Serve.Selftest.run ~flight ~engine_cfg ~version cfg in
          let s = o.Serve.Selftest.o_stats in
          let got =
            Printf.sprintf "%s frames=%d bytes_in=%d conns=%d sessions=%d"
              (Serve.Selftest.to_json { o with o_wall_s = 0.; o_rate = 0. })
              s.Serve.Engine.frames s.bytes_in s.conns_opened s.sessions_opened
          in
          Alcotest.(check string)
            (Printf.sprintf "v%d %s n=%d credit=%d width %d" version protocol n credit domains)
            want got)
        [ 1; 4 ])
    rows)
  [ (2, [
      ("count", 8, 600, 16, 0.2, 7, 256,
        {|{"protocol": "count", "n": 8, "sessions": 600, "decided": 486, "degraded": 47, "inconclusive": 0, "aborted": 67, "quarantines": 25, "quarantine_escapes": 0, "sheds": 0, "timeouts_idle": 23, "timeouts_deadline": 0, "late_frames": 0, "wrong_decided": 0, "clean_anomalies": 0, "unterminated": 0, "flight_recorded": 6641, "flight_dropped": 0, "flight_findings": 0, "flight_missing": 0, "faulty": 0.200, "wall_s": 0.000000, "rate_per_s": 0.0}|}
        ^ " frames=5542 bytes_in=146260 conns=82 sessions=600");
      ("count", 8, 600, 16, 0.3, 11, 3,
        {|{"protocol": "count", "n": 8, "sessions": 600, "decided": 428, "degraded": 63, "inconclusive": 0, "aborted": 109, "quarantines": 45, "quarantine_escapes": 0, "sheds": 0, "timeouts_idle": 37, "timeouts_deadline": 0, "late_frames": 0, "wrong_decided": 0, "clean_anomalies": 0, "unterminated": 0, "flight_recorded": 6313, "flight_dropped": 0, "flight_findings": 0, "flight_missing": 0, "faulty": 0.300, "wall_s": 0.000000, "rate_per_s": 0.0}|}
        ^ " frames=5264 bytes_in=139557 conns=124 sessions=600");
      ("sketch:7", 32, 120, 8, 0.3, 7, 256,
        {|{"protocol": "sketch:7", "n": 32, "sessions": 120, "decided": 78, "degraded": 0, "inconclusive": 17, "aborted": 25, "quarantines": 14, "quarantine_escapes": 0, "sheds": 0, "timeouts_idle": 9, "timeouts_deadline": 0, "late_frames": 0, "wrong_decided": 0, "clean_anomalies": 0, "unterminated": 0, "flight_recorded": 3667, "flight_dropped": 0, "flight_findings": 0, "flight_missing": 0, "faulty": 0.300, "wall_s": 0.000000, "rate_per_s": 0.0}|}
        ^ " frames=3461 bytes_in=3219461 conns=32 sessions=120");
      ("forest", 32, 600, 8, 0.3, 7, 256,
        {|{"protocol": "forest", "n": 32, "sessions": 600, "decided": 436, "degraded": 74, "inconclusive": 0, "aborted": 90, "quarantines": 36, "quarantine_escapes": 0, "sheds": 0, "timeouts_idle": 38, "timeouts_deadline": 0, "late_frames": 0, "wrong_decided": 0, "clean_anomalies": 0, "unterminated": 0, "flight_recorded": 19086, "flight_dropped": 0, "flight_findings": 0, "flight_missing": 0, "faulty": 0.300, "wall_s": 0.000000, "rate_per_s": 0.0}|}
        ^ " frames=18000 bytes_in=517219 conns=98 sessions=600");
      ("degeneracy:2", 32, 600, 8, 0.3, 7, 256,
        {|{"protocol": "degeneracy:2", "n": 32, "sessions": 600, "decided": 436, "degraded": 74, "inconclusive": 0, "aborted": 90, "quarantines": 36, "quarantine_escapes": 0, "sheds": 0, "timeouts_idle": 38, "timeouts_deadline": 0, "late_frames": 0, "wrong_decided": 0, "clean_anomalies": 0, "unterminated": 0, "flight_recorded": 19086, "flight_dropped": 0, "flight_findings": 0, "flight_missing": 0, "faulty": 0.300, "wall_s": 0.000000, "rate_per_s": 0.0}|}
        ^ " frames=18000 bytes_in=571041 conns=98 sessions=600");
      ("bounded:3", 32, 600, 8, 0.3, 7, 256,
        {|{"protocol": "bounded:3", "n": 32, "sessions": 600, "decided": 484, "degraded": 26, "inconclusive": 0, "aborted": 90, "quarantines": 36, "quarantine_escapes": 0, "sheds": 0, "timeouts_idle": 38, "timeouts_deadline": 0, "late_frames": 0, "wrong_decided": 0, "clean_anomalies": 0, "unterminated": 0, "flight_recorded": 19086, "flight_dropped": 0, "flight_findings": 0, "flight_missing": 0, "faulty": 0.300, "wall_s": 0.000000, "rate_per_s": 0.0}|}
        ^ " frames=18000 bytes_in=512417 conns=98 sessions=600");
    ]);
    (3, [
      ("count", 8, 600, 16, 0.2, 7, 256,
        {|{"protocol": "count", "n": 8, "sessions": 600, "decided": 486, "degraded": 47, "inconclusive": 0, "aborted": 67, "quarantines": 25, "quarantine_escapes": 0, "sheds": 0, "timeouts_idle": 23, "timeouts_deadline": 0, "late_frames": 0, "wrong_decided": 0, "clean_anomalies": 0, "unterminated": 0, "flight_recorded": 6641, "flight_dropped": 0, "flight_findings": 0, "flight_missing": 0, "faulty": 0.200, "wall_s": 0.000000, "rate_per_s": 0.0}|}
        ^ " frames=5542 bytes_in=146260 conns=82 sessions=600");
      ("sketch:7", 32, 120, 8, 0.3, 7, 256,
        {|{"protocol": "sketch:7", "n": 32, "sessions": 120, "decided": 78, "degraded": 0, "inconclusive": 17, "aborted": 25, "quarantines": 14, "quarantine_escapes": 0, "sheds": 0, "timeouts_idle": 9, "timeouts_deadline": 0, "late_frames": 0, "wrong_decided": 0, "clean_anomalies": 0, "unterminated": 0, "flight_recorded": 3667, "flight_dropped": 0, "flight_findings": 0, "flight_missing": 0, "faulty": 0.300, "wall_s": 0.000000, "rate_per_s": 0.0}|}
        ^ " frames=3461 bytes_in=3219461 conns=32 sessions=120");
    ]) ]

(* ---------- over a real socket ---------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun name -> remove_tree (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [with_daemon ?flight ?max_output_bytes ~metrics ~credit f] runs
   [Daemon.run] in its own domain on Unix sockets in a fresh temp dir,
   calls [f listen dir] once a client can connect, then stops the
   daemon with SIGTERM and checks it exits 0.  [max_run_s] is only a
   backstop. *)
let with_daemon ?(flight = false)
    ?(max_output_bytes = Serve.Engine.default_config.max_output_bytes) ~metrics ~credit f =
  let dir = Filename.temp_dir "refnet-serve" "" in
  let listen = Serve.Daemon.Unix_sock (Filename.concat dir "serve.sock") in
  let opts =
    {
      (Serve.Daemon.default_opts ~listen) with
      Serve.Daemon.metrics_listen =
        Some (Serve.Daemon.Unix_sock (Filename.concat dir "metrics.sock"));
      metrics;
      engine_cfg =
        {
          Serve.Engine.default_config with
          session_credit = credit;
          max_output_bytes;
          domains = Some 1;
        };
      flight_dir = (if flight then Some (Filename.concat dir "flight") else None);
      max_run_s = Some 60.;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.Daemon.run opts) in
  let rec await_listener tries =
    match Serve.Client.connect listen with
    | Ok c -> Serve.Client.close c
    | Error e ->
      if tries = 0 then begin
        (* no SIGTERM: a daemon that never listened has no handler for it *)
        ignore (Domain.join daemon);
        Alcotest.failf "daemon never listened: %s" e
      end;
      Unix.sleepf 0.01;
      await_listener (tries - 1)
  in
  let stop () =
    Unix.kill (Unix.getpid ()) Sys.sigterm;
    Domain.join daemon
  in
  await_listener 500;
  match f listen dir with
  | result ->
    Alcotest.(check int) "daemon exit code" 0 (stop ());
    remove_tree dir;
    result
  | exception e ->
    ignore (stop ());
    remove_tree dir;
    raise e

(* One Prometheus scrape of the metrics socket, as [name -> value].  A
   daemon that stopped answering fails the read after 10 s instead of
   hanging the test. *)
let scrape dir =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.connect fd (Unix.ADDR_UNIX (Filename.concat dir "metrics.sock"));
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
      in
      drain ();
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.filter_map (fun line ->
             match String.rindex_opt line ' ' with
             | Some i when line <> "" && line.[0] <> '#' ->
               Option.map
                 (fun v -> (String.sub line 0 i, v))
                 (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None))

(* Sessions below, at, one over and many times the credit window, and
   one sketch session of 1.7 KB frames, all on one connection: the
   client's flights must respect the window and every verdict must
   equal the offline referee's. *)
let test_socket_sessions () =
  let credit = 4 in
  with_daemon ~metrics:(Some (Core.Metrics.create ())) ~credit (fun listen dir ->
      let c =
        match Serve.Client.connect listen with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" e
      in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (match Serve.Client.handshake c with
          | Ok () -> ()
          | Error e -> Alcotest.failf "handshake: %s" e);
          let rng = Random.State.make [| 20 |] in
          List.iter
            (fun (spec, g) ->
              let n = Graph.order g in
              let tag = Printf.sprintf "%s n=%d" spec n in
              match Serve.Registry.lookup ~spec ~n with
              | Error e -> Alcotest.failf "lookup %s: %s" tag e
              | Ok (Serve.Registry.Entry { protocol; render }) -> (
                let msgs = count_msgs protocol g in
                let expected =
                  match Core.Protocol.apply protocol ~n msgs with
                  | Core.Verdict.Decided x -> render x
                  | _ -> Alcotest.failf "%s: clean offline run must decide" tag
                in
                let deliveries = Array.to_list (Array.mapi (fun i m -> (i + 1, m)) msgs) in
                match Serve.Client.run_session c ~protocol:spec ~n deliveries with
                | Ok v ->
                  Alcotest.(check bool)
                    (tag ^ " decided") true
                    (v.Serve.Client.status = Serve.Frame.Decided);
                  Alcotest.(check string) (tag ^ " payload") expected v.Serve.Client.payload
                | Error e -> Alcotest.failf "%s: %s" tag e))
            [
              ("count", Generators.random_tree rng 3);
              ("count", Generators.cycle 4);
              ("count", Generators.random_tree rng 5);
              ("count", Generators.random_tree rng 64);
              ("sketch:7", Generators.cycle 16);
            ]);
      let m = scrape dir in
      List.iter
        (fun (series, want) ->
          Alcotest.(check (option (float 0.))) series (Some want) (List.assoc_opt series m))
        [
          ("refnet_serve_verdicts_total{outcome=\"decided\"}", 5.);
          ("refnet_serve_quarantines_total", 0.);
          ("refnet_serve_late_frames_total", 0.);
          ("refnet_serve_quarantine_escapes_total", 0.);
        ];
      (* refreshed by the scrape itself, not by the event loop *)
      Alcotest.(check bool) "gc heap gauge refreshed" true
        (match List.assoc_opt "refnet_gc_heap_words" m with Some w -> w > 0. | None -> false))

(* A peer that pings and never reads is quarantined as a slow consumer
   once its unread replies pass [max_output_bytes]: the daemon leaves
   them in the engine instead of buffering them without bound. *)
let test_socket_slow_consumer () =
  with_daemon ~max_output_bytes:(1 lsl 18) ~metrics:(Some (Core.Metrics.create ())) ~credit:4
    (fun listen dir ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Serve.Daemon.sockaddr_of_listen listen);
          let pings =
            Serve.Frame.encode_client (Serve.Frame.Hello { version = Serve.Frame.version })
            :: List.init 1000 (fun token -> Serve.Frame.encode_client (Serve.Frame.Ping { token }))
            |> String.concat ""
          in
          let quarantines () =
            List.assoc_opt "refnet_serve_quarantines_total" (scrape dir) = Some 1.
          in
          let rec flood rounds =
            if not (quarantines ()) then begin
              if rounds = 0 then Alcotest.fail "a peer that never reads was not quarantined";
              (* the daemon closes a quarantined peer: writes then fail *)
              (try ignore (Unix.write_substring fd pings 0 (String.length pings))
               with Unix.Unix_error _ -> ());
              flood (rounds - 1)
            end
          in
          flood 400))

(* A recording daemon with no metrics registry still dumps its flight
   rings as soon as a hostile connection is quarantined. *)
let test_socket_quarantine_dumps () =
  with_daemon ~flight:true ~metrics:None ~credit:4 (fun listen dir ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Serve.Daemon.sockaddr_of_listen listen);
          let junk = String.make 64 '\xff' in
          ignore (Unix.write_substring fd junk 0 (String.length junk));
          let flight_dir = Filename.concat dir "flight" in
          let rec await_dump tries =
            let dumps =
              try
                Sys.readdir flight_dir |> Array.to_list
                |> List.filter (fun f -> Filename.check_suffix f ".flight")
              with Sys_error _ -> []
            in
            if dumps = [] then begin
              if tries = 0 then Alcotest.fail "no flight dump after a quarantine";
              Unix.sleepf 0.01;
              await_dump (tries - 1)
            end
          in
          await_dump 500))

(* More idle connects than [select] can watch (FD_SETSIZE, 1024) must
   not take the daemon down.  Client and daemon share this process's fd
   table, so the daemon's accepted fds pass 1024 about halfway through
   the flood.  A connection opened before the flood still decides, the
   daemon counts the connections it could not take as sheds, and a
   connection opened after the flood closes decides too. *)
let test_socket_fd_flood () =
  with_daemon ~metrics:(Some (Core.Metrics.create ())) ~credit:4 (fun listen dir ->
      let client () =
        match Serve.Client.connect listen with
        | Error e -> Alcotest.failf "connect: %s" e
        | Ok c -> (
          match Serve.Client.handshake c with
          | Ok () -> c
          | Error e -> Alcotest.failf "handshake: %s" e)
      in
      let decide tag c =
        let g = Generators.cycle 8 in
        match Serve.Registry.lookup ~spec:"count" ~n:8 with
        | Error e -> Alcotest.failf "lookup: %s" e
        | Ok (Serve.Registry.Entry { protocol; render }) -> (
          let msgs = count_msgs protocol g in
          let expected =
            match Core.Protocol.apply protocol ~n:8 msgs with
            | Core.Verdict.Decided x -> render x
            | _ -> Alcotest.fail "clean offline run must decide"
          in
          let deliveries = Array.to_list (Array.mapi (fun i m -> (i + 1, m)) msgs) in
          match Serve.Client.run_session c ~protocol:"count" ~n:8 deliveries with
          | Ok v -> Alcotest.(check string) (tag ^ " payload") expected v.Serve.Client.payload
          | Error e -> Alcotest.failf "%s: %s" tag e)
      in
      let honest = client () in
      let addr = Serve.Daemon.sockaddr_of_listen listen in
      (* non-blocking, so a daemon that stopped accepting fails the test
         once the listen backlog is full instead of hanging it *)
      let rec idle_connect tries =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        match Unix.connect fd addr with
        | () -> fd
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Unix.close fd;
          if tries = 0 then Alcotest.fail "the daemon stopped accepting during the flood";
          Unix.sleepf 0.01;
          idle_connect (tries - 1)
      in
      let flood = List.init 1100 (fun _ -> idle_connect 300) in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close flood)
        (fun () ->
          (* the second scrape is answered only after a [select] over
             every fd the daemon kept *)
          ignore (scrape dir);
          let sheds = List.assoc_opt "refnet_serve_sheds_total" (scrape dir) in
          Alcotest.(check bool) "unwatchable connections shed" true
            (match sheds with Some k -> k > 0. | None -> false);
          decide "opened before the flood" honest);
      let late = client () in
      decide "opened after the flood" late;
      Serve.Client.close late;
      Serve.Client.close honest)

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "frame roundtrips" `Quick test_frame_roundtrips;
          Alcotest.test_case "digest trips on flip" `Quick test_wire_digest_trips;
          Alcotest.test_case "long strings refused" `Quick test_frame_long_string_refused;
          Alcotest.test_case "decode error strings" `Quick test_frame_decode_errors;
          Alcotest.test_case "seal and wire golden" `Quick test_seal_wire_golden;
          Alcotest.test_case "msg pad bits cleared" `Quick test_msg_pad_bits_cleared;
        ] );
      ( "receive path",
        [
          Alcotest.test_case "encode_client allocates its bytes" `Quick
            test_encode_client_allocation;
          Alcotest.test_case "views never alias" `Quick test_views_never_alias;
          Alcotest.test_case "engine bytes per sketch session" `Quick
            test_engine_allocation_per_session;
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
          Alcotest.test_case "slow consumer quarantines" `Quick test_slow_consumer_quarantines;
          Alcotest.test_case "undeliverable verdict aborts" `Quick
            test_undeliverable_verdict_aborts;
          Alcotest.test_case "queue depth gauge" `Quick test_queue_depth_gauge;
          Alcotest.test_case "engine golden" `Quick test_engine_golden;
          Alcotest.test_case "idle connect closes" `Quick test_idle_connect_closes;
          Alcotest.test_case "hello cannot switch version" `Quick test_hello_cannot_switch_version;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "welcome mints distinct traces" `Quick
            test_welcome_mints_distinct_traces;
          Alcotest.test_case "verdict carries conn trace" `Quick test_verdict_carries_conn_trace;
          Alcotest.test_case "evidence rejection" `Quick test_evidence_rejection;
        ] );
      ( "client session",
        [
          Alcotest.test_case "count n=8 is two flights" `Quick test_session_two_flights;
          Alcotest.test_case "window breaks flights" `Quick test_session_window_breaks_flights;
          Alcotest.test_case "large frames one per flight" `Quick
            test_session_large_frames_one_per_flight;
          Alcotest.test_case "early verdict" `Quick test_session_early_verdict;
          Alcotest.test_case "error strings" `Quick test_session_error_strings;
          Alcotest.test_case "v3 count n=8 is one flight" `Quick test_v3_count_is_one_flight;
          Alcotest.test_case "v3 rejected open drops its pipeline" `Quick
            test_v3_rejected_open_drops_pipeline;
          Alcotest.test_case "v3 live open_id reuse quarantines" `Quick
            test_v3_live_open_id_reuse_quarantines;
        ] );
      ( "socket",
        [
          Alcotest.test_case "sessions equal offline referee" `Quick test_socket_sessions;
          Alcotest.test_case "slow consumer quarantined" `Quick test_socket_slow_consumer;
          Alcotest.test_case "quarantine dumps flight" `Quick test_socket_quarantine_dumps;
          Alcotest.test_case "fd flood past FD_SETSIZE" `Quick test_socket_fd_flood;
        ] );
      ( "selftest",
        [
          Alcotest.test_case "clean campaign" `Quick test_selftest_clean;
          Alcotest.test_case "chaos campaign" `Quick test_selftest_chaos;
          Alcotest.test_case "selftest transcript" `Quick test_selftest_transcript;
        ] );
    ]
