open Core
module Generators = Refnet_graph.Generators
module Reader = Refnet_bits.Byte_io.Reader

type cfg = {
  sessions : int;
  conns : int;
  n : int;
  protocol : string;
  faulty : float;
  seed : int;
  templates : int;
}

let default_cfg =
  {
    sessions = 20_000;
    conns = 64;
    n = 8;
    protocol = "count";
    faulty = 0.;
    seed = 42;
    templates = 16;
  }

type outcome = {
  o_protocol : string;
  o_n : int;
  o_sessions : int;
  o_stats : Engine.stats;
  o_wrong_decided : int;
  o_clean_anomalies : int;
  o_unterminated : int;
  o_flight_recorded : int;
  o_flight_dropped : int;
  o_flight_findings : int; (* -1 when no recorder was attached *)
  o_flight_missing : int; (* verdicts with no flight note (drop-free runs) *)
  o_faulty : float;
  o_wall_s : float;
  o_rate : float;
}

(* ---------- session templates ---------- *)

type template = {
  t_msgs : Message.t array; (* clean local-phase output, index = id-1 *)
  t_expected : string; (* rendering of the fault-free verdict payload *)
}

let build_templates entry cfg =
  match entry with
  | Registry.Entry { protocol = p; render } ->
      Array.init cfg.templates (fun i ->
          let st = Random.State.make [| cfg.seed; 7919 * (i + 1) |] in
          (* trees exercise every registry protocol sensibly; every
             fourth template is a cycle so recognizers also see a
             rejecting input *)
          let g =
            if i mod 4 = 3 && cfg.n >= 3 then Generators.cycle cfg.n
            else Generators.random_tree st cfg.n
          in
          let msgs = Simulator.local_phase p g in
          let expected =
            match Protocol.apply p ~n:cfg.n msgs with
            | Verdict.Decided a -> render a
            | Verdict.Degraded _ | Verdict.Inconclusive _ ->
                (* a clean in-order feed must decide; registry entries
                   are hardened protocols, so this is unreachable *)
                "unreachable:clean-run-did-not-decide"
          in
          { t_msgs = msgs; t_expected = expected })

(* ---------- chaos behaviours ---------- *)

type behaviour =
  | Clean
  | Node_faults
  | Crash_mid
  | Truncate_frame
  | Corrupt_byte
  | Stall

let behaviour_of st faulty =
  if Random.State.float st 1.0 >= faulty then Clean
  else
    match Random.State.int st 5 with
    | 0 -> Node_faults
    | 1 -> Crash_mid
    | 2 -> Truncate_frame
    | 3 -> Corrupt_byte
    | _ -> Stall

(* ---------- jobs: one client session each ---------- *)

type job = {
  j_behaviour : behaviour;
  j_template : template;
  j_session : Client.Session.t;
  mutable j_frames : int; (* frames let through so far, the Open included *)
}

(* One client connection; it runs its jobs one after another. *)
type lane = {
  mutable l_conn : Engine.conn_id option;
  mutable l_decoder : Wire.decoder;
  mutable l_job : job option;
}

let tick_dt = 0.002

let default_engine_cfg =
  {
    Engine.default_config with
    Engine.deadline_s = 1.0;
    idle_timeout_s = 0.25;
    max_sessions = 8192;
  }

let job_for cfg templates index =
  let st = Random.State.make [| cfg.seed; (2 * index) + 1 |] in
  let b = behaviour_of st cfg.faulty in
  let t = templates.(index mod Array.length templates) in
  let msgs =
    match b with
    | Node_faults ->
        let plan =
          Faults.random
            ~seed:(cfg.seed lxor (index * 2654435761))
            ~n:(Array.length t.t_msgs) ~crash:0.3 ~truncate:0.15 ~flip:0.1
            ~duplicate:0.1 ~spoof:0.05 ()
        in
        fst (Faults.apply plan t.t_msgs)
    | _ -> List.mapi (fun j m -> (j + 1, m)) (Array.to_list t.t_msgs)
  in
  {
    j_behaviour = b;
    j_template = t;
    j_session =
      Client.Session.start ~open_id:index ~protocol:cfg.protocol ~n:cfg.n msgs;
    j_frames = 0;
  }

(* How many frames job [j]'s behaviour lets through: all of them, or,
   for Crash_mid, Truncate_frame, Corrupt_byte and Stall, the Open and
   the first half of the Msg frames. *)
let frame_limit j =
  match j.j_behaviour with
  | Clean | Node_faults -> max_int
  | Crash_mid | Truncate_frame | Corrupt_byte | Stall ->
      1 + max 1 (Array.length j.j_template.t_msgs / 2)

(* [let_through j flight] is what job [j]'s behaviour lets through of
   one flight of its session's output, and whether the behaviour's cut
   falls inside that flight.  At the cut, Truncate_frame keeps only the
   first half of the last frame, and Corrupt_byte flips a bit in its
   payload, so the header parses but the digest check fires.  Frames
   are walked by the length in their wire header. *)
let let_through j flight =
  let limit = frame_limit j in
  let r = Reader.of_string flight in
  let rec walk () =
    if limit = max_int || Reader.remaining r = 0 then (flight, false)
    else begin
      let off = Reader.pos r in
      Reader.skip r 2 (* magic and kind *);
      Reader.skip r (4 + Reader.u32 r) (* digest and payload *);
      let len = Reader.pos r - off in
      j.j_frames <- j.j_frames + 1;
      if j.j_frames < limit then walk ()
      else
        match j.j_behaviour with
        | Truncate_frame -> (String.sub flight 0 (off + (len / 2)), true)
        | Corrupt_byte ->
            let b = Bytes.sub (Bytes.unsafe_of_string flight) 0 (off + len) in
            let i = off + min (len - 1) (Wire.header_bytes + 2) in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
            (Bytes.unsafe_to_string b, true)
        | _ -> (String.sub flight 0 (off + len), true)
    end
  in
  walk ()

let feed_str engine cid s =
  Engine.feed_bytes engine cid (Bytes.unsafe_of_string s) ~off:0
    ~len:(String.length s)

let run ?(trace = Trace.null) ?metrics ?flight ?(engine_cfg = default_engine_cfg)
    cfg =
  match Registry.lookup ~spec:cfg.protocol ~n:cfg.n with
  | Error msg -> invalid_arg ("Selftest.run: " ^ msg)
  | Ok entry ->
      let templates = build_templates entry cfg in
      let vnow = ref 0.0 in
      let engine =
        Engine.create
          ~clock:(fun () -> !vnow)
          ~trace ?metrics ?flight engine_cfg
      in
      let next_job = ref 0 in
      let terminal = ref 0 and wrong = ref 0 and clean_anomalies = ref 0 in
      let lanes =
        Array.init cfg.conns (fun _ ->
            { l_conn = None; l_decoder = Wire.decoder (); l_job = None })
      in
      (* [job_terminal l v] ends the lane's job; [v] is [None] when its
         session ended without a verdict.  A clean session must end
         [Decided] with the template's answer. *)
      let job_terminal l (v : Client.verdict option) =
        match l.l_job with
        | None -> ()
        | Some j ->
            l.l_job <- None;
            incr terminal;
            let right =
              match v with
              | Some { status = Frame.Decided; payload; _ } ->
                  Some (payload = j.j_template.t_expected)
              | _ -> None
            in
            if right = Some false then incr wrong;
            if j.j_behaviour = Clean && right <> Some true then incr clean_anomalies
      in
      let drop_conn l =
        (match l.l_conn with
        | Some cid -> Engine.close_conn engine cid
        | None -> ());
        l.l_conn <- None;
        l.l_decoder <- Wire.decoder ()
      in
      let handle_server_frames l =
        match l.l_conn with
        | None -> ()
        | Some cid ->
            let out = Engine.take_output engine cid in
            if out <> "" then
              Wire.push l.l_decoder (Bytes.unsafe_of_string out) ~off:0
                ~len:(String.length out);
            let rec go () =
              match Wire.next l.l_decoder with
              | Wire.Awaiting -> ()
              | Wire.Corrupt _ ->
                  (* a server must never emit corrupt bytes; surface as
                     an anomaly by dropping the conn (job -> aborted) *)
                  job_terminal l None;
                  drop_conn l
              | Wire.Frame { kind; payload } -> (
                  match Frame.decode_server ~kind payload with
                  | Error _ ->
                      job_terminal l None;
                      drop_conn l
                  | Ok (Frame.Welcome _ | Frame.Pong _) -> go ()
                  | Ok frame -> (
                      (match l.l_job with
                      | None -> ()
                      | Some j -> (
                          (* a Rejected job is not retried: the shed
                             counter carries the signal *)
                          match Client.Session.recv j.j_session frame with
                          | None -> ()
                          | Some r -> job_terminal l (Result.to_option r)));
                      match frame with
                      | Frame.Error _ -> drop_conn l (* typed quarantine *)
                      | _ -> go ()))
            in
            go ()
      in
      (* Feed the session's flights through its behaviour until the
         session waits for the server or the behaviour's cut: Crash_mid
         and Truncate_frame then drop the connection, Corrupt_byte
         waits for its Error and Stall for its idle timeout. *)
      let rec pump l cid j =
        match Client.Session.flight j.j_session with
        | None -> ()
        | Some flight -> (
            let bytes, cut = let_through j flight in
            feed_str engine cid bytes;
            if not cut then pump l cid j
            else
              match j.j_behaviour with
              | Crash_mid | Truncate_frame ->
                  drop_conn l;
                  job_terminal l None
              | _ -> ())
      in
      let step l =
        if l.l_job = None && !next_job < cfg.sessions then begin
          l.l_job <- Some (job_for cfg templates !next_job);
          incr next_job
        end;
        (match l.l_job with
        | None -> ()
        | Some j -> (
            if l.l_conn = None then begin
              match Engine.open_conn engine with
              | Ok cid ->
                  l.l_conn <- Some cid;
                  l.l_decoder <- Wire.decoder ();
                  feed_str engine cid
                    (Frame.encode_client (Frame.Hello { version = Frame.version }))
              | Error _ -> ()
            end;
            match l.l_conn with
            | Some cid when j.j_frames < frame_limit j -> pump l cid j
            | _ -> ()));
        handle_server_frames l
      in
      let t0 = Unix.gettimeofday () in
      let settle = ref 0 in
      let max_settle =
        (* enough virtual time for every deadline to fire after the last
           job is handed out, with slack *)
        int_of_float ((engine_cfg.Engine.deadline_s /. tick_dt) *. 4.0) + 1000
      in
      let busy l = l.l_job <> None || !next_job < cfg.sessions in
      while Array.exists busy lanes && !settle < max_settle do
        Array.iter (fun l -> if busy l then step l) lanes;
        Engine.tick engine;
        Array.iter (fun l -> if busy l then handle_server_frames l) lanes;
        vnow := !vnow +. tick_dt;
        if !next_job >= cfg.sessions then incr settle
      done;
      let wall = Unix.gettimeofday () -. t0 in
      (* anything still in flight after settling is unterminated *)
      let unterminated =
        Array.fold_left
          (fun acc l -> if l.l_job <> None then acc + 1 else acc)
          0 lanes
      in
      let s = Engine.stats engine in
      let wall = if wall <= 0. then 1e-9 else wall in
      (* Flight audit: the in-memory dump must decode finding-free, and
         on a drop-free run every verdict the engine issued must have
         left a terminal note in the rings — i.e. every session that
         reached a disposition left decodable evidence. *)
      let fl_recorded, fl_dropped, fl_findings, fl_missing =
        match flight with
        | None -> (0, 0, -1, 0)
        | Some f ->
            let d = Flight.decode (Flight.dump f) in
            let verdict_notes =
              List.fold_left
                (fun acc -> function
                  | Flight.Note { code = "verdict"; _ } -> acc + 1
                  | _ -> acc)
                0 d.Flight.d_entries
            in
            let expected =
              s.Engine.decided + s.Engine.degraded + s.Engine.inconclusive
            in
            let missing =
              if d.Flight.d_dropped = 0 then max 0 (expected - verdict_notes)
              else 0
            in
            ( d.Flight.d_recorded,
              d.Flight.d_dropped,
              List.length d.Flight.d_findings,
              missing )
      in
      {
        o_protocol = cfg.protocol;
        o_n = cfg.n;
        o_sessions = !terminal;
        o_stats = s;
        o_wrong_decided = !wrong;
        o_clean_anomalies = !clean_anomalies;
        o_unterminated = unterminated;
        o_flight_recorded = fl_recorded;
        o_flight_dropped = fl_dropped;
        o_flight_findings = fl_findings;
        o_flight_missing = fl_missing;
        o_faulty = cfg.faulty;
        o_wall_s = wall;
        o_rate = float_of_int !terminal /. wall;
      }

let passed ?min_rate o =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if o.o_wrong_decided > 0 then
    fail "%d Decided verdicts contradicted ground truth" o.o_wrong_decided
  else if o.o_stats.quarantine_escapes > 0 then
    fail "%d exceptions escaped to the engine shell"
      o.o_stats.quarantine_escapes
  else if o.o_clean_anomalies > 0 then
    fail "%d fault-free sessions did not decide correctly" o.o_clean_anomalies
  else if o.o_unterminated > 0 then
    fail "%d sessions never reached a terminal state" o.o_unterminated
  else if o.o_flight_findings > 0 then
    fail "%d findings decoding the flight dump" o.o_flight_findings
  else if o.o_flight_missing > 0 then
    fail "%d verdicts left no flight-recorder evidence" o.o_flight_missing
  else
    match min_rate with
    | Some r when o.o_rate < r ->
        fail "throughput %.0f sessions/s below the %.0f floor" o.o_rate r
    | _ -> Ok ()

let to_json o =
  let st = o.o_stats in
  Printf.sprintf
    "{\"protocol\": %s, \"n\": %d, \"sessions\": %d, \"decided\": %d, \
     \"degraded\": %d, \"inconclusive\": %d, \"aborted\": %d, \
     \"quarantines\": %d, \"quarantine_escapes\": %d, \"sheds\": %d, \
     \"timeouts_idle\": %d, \"timeouts_deadline\": %d, \"late_frames\": %d, \
     \"wrong_decided\": %d, \"clean_anomalies\": %d, \"unterminated\": %d, \
     \"flight_recorded\": %d, \"flight_dropped\": %d, \
     \"flight_findings\": %d, \"flight_missing\": %d, \
     \"faulty\": %.3f, \"wall_s\": %.6f, \"rate_per_s\": %.1f}"
    (Refnet_json.Json.string o.o_protocol)
    o.o_n o.o_sessions st.decided st.degraded st.inconclusive st.aborted
    st.quarantines st.quarantine_escapes st.sheds st.timeouts_idle
    st.timeouts_deadline st.late_frames o.o_wrong_decided o.o_clean_anomalies
    o.o_unterminated o.o_flight_recorded o.o_flight_dropped o.o_flight_findings
    o.o_flight_missing o.o_faulty o.o_wall_s o.o_rate

let pp ppf o =
  let st = o.o_stats in
  Format.fprintf ppf
    "@[<v>protocol %s n=%d: %d sessions in %.2fs (%.0f/s)@,\
     verdicts: %d decided, %d degraded, %d inconclusive; %d aborted@,\
     chaos: %.0f%% faulty, %d quarantines, %d sheds, %d idle + %d deadline \
     timeouts, %d late frames@,\
     invariants: %d wrong decided, %d clean anomalies, %d unterminated, %d \
     escapes@,\
     flight: %d recorded, %d dropped, %d findings, %d missing@]"
    o.o_protocol o.o_n o.o_sessions o.o_wall_s o.o_rate st.decided st.degraded
    st.inconclusive st.aborted (o.o_faulty *. 100.) st.quarantines st.sheds
    st.timeouts_idle st.timeouts_deadline st.late_frames o.o_wrong_decided
    o.o_clean_anomalies o.o_unterminated st.quarantine_escapes o.o_flight_recorded
    o.o_flight_dropped o.o_flight_findings o.o_flight_missing
