(* Timed calls into each layer's public functions, on the messages and
   graphs of the workload at hand.  Every call checks its own output,
   so a layer that got faster by getting wrong fails the run. *)

open Core
open Serve
module Gs = Refnet_graph.Graph_source
module Bit_reader = Refnet_bits.Bit_reader
module Bit_writer = Refnet_bits.Bit_writer

let wrong = Util.wrong

type sample = (int * Message.t) array (* (node id, message) *)

let sample_bits (msgs : sample) =
  Array.fold_left (fun acc (_, m) -> acc + Message.bits m) 0 msgs

(* ---------- bits ---------- *)

let read_words m =
  let len = Message.bits m in
  let r = Message.reader m in
  Array.init ((len + 61) / 62) (fun i ->
      Bit_reader.read_bits r ~width:(min 62 (len - (62 * i))))

let write_words len words =
  let w = Bit_writer.create () in
  Array.iteri
    (fun i v -> Bit_writer.add_bits w ~value:v ~width:(min 62 (len - (62 * i))))
    words;
  Bit_writer.contents w

let bits rec_ ~session (msgs : sample) =
  let units = float_of_int (sample_bits msgs) in
  let words =
    Span.with_span rec_ ~session ~units "bits.read" (fun () ->
        Array.map (fun (_, m) -> read_words m) msgs)
  in
  let back =
    Span.with_span rec_ ~session ~units "bits.write" (fun () ->
        Array.mapi (fun i (_, m) -> write_words (Message.bits m) words.(i)) msgs)
  in
  Array.iteri
    (fun i (id, m) ->
      if not (Message.equal back.(i) m) then
        wrong "bits: node %d's message changed in a read/write round trip" id)
    msgs

(* ---------- message ---------- *)

let seal_unseal rec_ ~session ~n (msgs : sample) =
  let sealed =
    Span.with_span rec_ ~session
      ~units:(float_of_int (sample_bits msgs))
      "message.seal"
      (fun () -> Array.map (fun (id, m) -> Message.seal ~n ~id m) msgs)
  in
  let sealed_bits = Array.fold_left (fun acc m -> acc + Message.bits m) 0 sealed in
  let opened =
    Span.with_span rec_ ~session ~units:(float_of_int sealed_bits) "message.unseal"
      (fun () -> Array.mapi (fun i s -> Message.unseal ~n ~id:(fst msgs.(i)) s) sealed)
  in
  Array.iteri
    (fun i (id, m) ->
      match opened.(i) with
      | Some p when Message.equal p m -> ()
      | _ -> wrong "message: node %d's seal did not unseal to the payload" id)
    msgs

(* ---------- wire ---------- *)

(* frames encoded and decoded by {!wire}, for the per-frame cost *)
let frames = ref 0

(* [wire] frames one session's client traffic (Open, one Msg per node,
   Finish), then decodes it back through the incremental decoder.
   Returns the session's byte count. *)
let wire rec_ ~session ~protocol ~n (msgs : sample) =
  let bytes =
    Span.with_span_u rec_ ~session "wire.encode" (fun () ->
        let b = Buffer.create (64 * (Array.length msgs + 2)) in
        Buffer.add_string b
          (Frame.encode_client (Frame.Open { open_id = 1; protocol; n; trace = 0L }));
        Array.iter
          (fun (node, payload) ->
            Buffer.add_string b
              (Frame.encode_client (Frame.Msg { session = 1; node; payload })))
          msgs;
        Buffer.add_string b (Frame.encode_client (Frame.Finish { session = 1 }));
        let s = Buffer.contents b in
        (s, float_of_int (String.length s)))
  in
  let len = String.length bytes in
  let decoded =
    Span.with_span rec_ ~session ~units:(float_of_int len) "wire.decode" (fun () ->
        let d = Wire.decoder () in
        Wire.push d (Bytes.unsafe_of_string bytes) ~off:0 ~len;
        let rec loop acc =
          match Wire.next d with
          | Wire.Frame { kind; payload } -> (
              match Frame.decode_client ~kind payload with
              | Ok f -> loop (f :: acc)
              | Error e -> wrong "wire: frame failed to decode: %s" e)
          | Wire.Awaiting -> List.rev acc
          | Wire.Corrupt e -> wrong "wire: corrupt frame: %s" e
        in
        loop [])
  in
  let k = Array.length msgs in
  if List.length decoded <> k + 2 then
    wrong "wire: %d frames decoded, %d encoded" (List.length decoded) (k + 2);
  List.iteri
    (fun i f ->
      match f with
      | Frame.Msg { node; payload; _ } ->
          let id, m = msgs.(i - 1) in
          if node <> id || not (Message.equal payload m) then
            wrong "wire: node %d's message changed in transit" id
      | _ -> ())
    decoded;
  frames := !frames + k + 2;
  len

(* ---------- referee (one-round protocols) ---------- *)

let referee rec_ ~session ~n (r : 'a Protocol.referee) (msgs : sample) =
  let feed =
    Span.with_span rec_ ~session
      ~units:(float_of_int (Array.length msgs))
      "referee.absorb"
      (fun () ->
        Array.fold_left (fun f (id, m) -> Protocol.feed f ~id m) (Protocol.start r ~n) msgs)
  in
  Span.with_span rec_ ~session ~units:1. "referee.finish" (fun () -> Protocol.finish feed)

(* ---------- local phase and graph source ---------- *)

(* [offline entry src] is a registry protocol's messages on [src] and
   the rendering of its offline referee's verdict: the oracle a served
   session's [Decided] payload must equal. *)
let offline (Registry.Entry { protocol = p; render }) src =
  let n = Gs.order src in
  let msgs = Array.mapi (fun i m -> (i + 1, m)) (Simulator.local_phase_source p src) in
  let feed =
    Array.fold_left
      (fun f (id, m) -> Protocol.feed f ~id m)
      (Protocol.start p.Protocol.referee ~n)
      msgs
  in
  match Protocol.finish feed with
  | Verdict.Decided a -> (msgs, render a)
  | Verdict.Degraded _ | Verdict.Inconclusive _ ->
      wrong "offline %s referee did not decide" p.Protocol.name

let local rec_ ~session p src =
  Span.with_span rec_ ~session
    ~units:(float_of_int (Gs.order src))
    "local"
    (fun () -> Simulator.local_phase_source p src)

(* [graph_source] enumerates every node's neighbours; the endpoint
   count must be twice the edge count. *)
let graph_source rec_ ~session src =
  let n = Gs.order src in
  let ends =
    Span.with_span rec_ ~session ~units:(float_of_int n) "graph_source" (fun () ->
        let ends = ref 0 in
        for v = 1 to n do
          Gs.iter_neighbors src v (fun _ -> incr ends)
        done;
        !ends)
  in
  if ends <> 2 * Gs.size src then
    wrong "graph_source: %d neighbour entries for %d edges" ends (Gs.size src)

(* ---------- bcc ---------- *)

let round_of label =
  let key = "[round=" in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length label then None
    else if String.sub label i kl = key then
      match String.index_from_opt label (i + kl) ']' with
      | Some j -> int_of_string_opt (String.sub label (i + kl) (j - i - kl))
      | None -> None
    else find (i + 1)
  in
  find 0

(* [bcc] runs Montealegre-Todinca connectivity on [src].  With
   recording on, a {!Trace.make} sink turns the engine's own
   [name[round=r]] spans into [bcc.round.r] child spans. *)
let bcc rec_ ~session ~rounds src =
  let p = Bcc_connectivity.protocol ~rounds ~bandwidth:2 () in
  let sink =
    if not rec_.Span.on then Trace.null
    else begin
      let open_rounds = Hashtbl.create 4 in
      Trace.make (function
        | Trace.Span_begin { label; _ } -> (
            match round_of label with
            | Some r ->
                Hashtbl.replace open_rounds r
                  (Span.enter rec_ ~session (Printf.sprintf "bcc.round.%d" r))
            | None -> ())
        | Trace.Span_end { label; _ } -> (
            match round_of label with
            | Some r -> (
                match Hashtbl.find_opt open_rounds r with
                | Some idx -> Span.leave rec_ idx
                | None -> ())
            | None -> ())
        | Trace.Referee_done { label; total_bits; _ } -> (
            match round_of label with
            | Some r -> (
                match Hashtbl.find_opt open_rounds r with
                | Some idx -> Span.add_units rec_ idx (float_of_int total_bits)
                | None -> ())
            | None -> ())
        | _ -> ())
    end
  in
  Span.with_span_u rec_ ~session "bcc.run" (fun () ->
      let out, t = Bcc.run_source ~trace:sink p src in
      ((out, t), float_of_int t.Bcc.total_bits))

(* ---------- engine (in-process replay of the byte path) ---------- *)

type replay = {
  engine : Engine.t;
  cid : Engine.conn_id;
  dec : Wire.decoder;
  mutable opens : int;
}

let pull rp =
  let out = Engine.take_output rp.engine rp.cid in
  if out <> "" then
    Wire.push rp.dec (Bytes.unsafe_of_string out) ~off:0 ~len:(String.length out);
  let rec loop acc =
    match Wire.next rp.dec with
    | Wire.Frame { kind; payload } -> (
        match Frame.decode_server ~kind payload with
        | Ok f -> loop (f :: acc)
        | Error e -> wrong "engine: server frame failed to decode: %s" e)
    | Wire.Awaiting -> List.rev acc
    | Wire.Corrupt e -> wrong "engine: corrupt server frame: %s" e
  in
  loop []

let feed_string rp s =
  Engine.feed_bytes rp.engine rp.cid (Bytes.unsafe_of_string s) ~off:0
    ~len:(String.length s)

(* [replay_open ~deadline ()] is an engine with one handshaken
   connection.  [deadline] bounds a session in wall-clock seconds. *)
let replay_open ~deadline () =
  let engine =
    Engine.create
      { Engine.default_config with Engine.deadline_s = deadline; idle_timeout_s = deadline }
  in
  match Engine.open_conn engine with
  | Error e -> wrong "engine refused a connection: %s" e
  | Ok cid -> (
      let rp = { engine; cid; dec = Wire.decoder (); opens = 0 } in
      feed_string rp (Frame.encode_client (Frame.Hello { version = Frame.version }));
      Engine.tick engine;
      match pull rp with
      | [ Frame.Welcome _ ] -> rp
      | _ -> wrong "engine: no Welcome after Hello")

(* [replay_session] drives one session through [Engine.feed_bytes],
   [tick] and [take_output] exactly as a socket client would, under the
   credit window, and returns the [Decided] payload. *)
let replay_session rp rec_ ~session ~protocol ~n (msgs : sample) =
  rp.opens <- rp.opens + 1;
  let open_id = rp.opens in
  let feed s =
    Span.with_span rec_ ~session
      ~units:(float_of_int (String.length s))
      "engine.feed"
      (fun () -> feed_string rp s)
  in
  let pump () =
    Span.with_span rec_ ~session ~units:1. "engine.tick" (fun () -> Engine.tick rp.engine);
    Span.with_span rec_ ~session "client.decode" (fun () -> pull rp)
  in
  feed
    (Span.with_span rec_ ~session "client.encode" (fun () ->
         Frame.encode_client (Frame.Open { open_id; protocol; n; trace = 0L })));
  let sid, credit =
    match pump () with
    | [ Frame.Opened { open_id = o; session = sid; credit } ] when o = open_id ->
        (sid, credit)
    | _ -> wrong "engine: no Opened for session %d" open_id
  in
  let len = Array.length msgs in
  let pos = ref 0 and window = ref credit and finished = ref false in
  let verdict = ref None and idle = ref 0 in
  while !verdict = None do
    if not !finished then begin
      let k = min !window (len - !pos) in
      if k > 0 || !pos = len then begin
        let s =
          Span.with_span rec_ ~session "client.encode" (fun () ->
              let b = Buffer.create (64 * (k + 1)) in
              for i = !pos to !pos + k - 1 do
                let node, payload = msgs.(i) in
                Buffer.add_string b
                  (Frame.encode_client (Frame.Msg { session = sid; node; payload }))
              done;
              if !pos + k = len then
                Buffer.add_string b (Frame.encode_client (Frame.Finish { session = sid }));
              Buffer.contents b)
        in
        pos := !pos + k;
        window := !window - k;
        if !pos = len then finished := true;
        feed s
      end
    end;
    let progress = ref false in
    List.iter
      (function
        | Frame.Credit { session = s; credit } when s = sid ->
            progress := true;
            window := !window + credit
        | Frame.Verdict { session = s; status = Frame.Decided; payload; _ } when s = sid ->
            verdict := Some payload
        | Frame.Verdict { session = s; payload; _ } when s = sid ->
            wrong "engine: session %d ended undecided: %s" sid payload
        | Frame.Error { detail; _ } -> wrong "engine: server error: %s" detail
        | _ -> ())
      (pump ());
    if !progress then idle := 0 else incr idle;
    if !idle > 10_000 then wrong "engine: session %d stalled" sid
  done;
  Option.get !verdict
