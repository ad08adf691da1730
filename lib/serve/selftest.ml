open Core
module Generators = Refnet_graph.Generators

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
          let feed =
            Array.to_list msgs
            |> List.mapi (fun j m -> (j + 1, m))
            |> List.fold_left
                 (fun f (id, m) -> Protocol.feed f ~id m)
                 (Protocol.start p.Protocol.referee ~n:cfg.n)
          in
          let expected =
            match Protocol.finish feed with
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

(* ---------- worker state machine ---------- *)

type phase =
  | Idle
  | Opening
  | Streaming of { sent : int; window : int }
  | Stalled
  | Awaiting

type job = {
  j_index : int; (* global session index *)
  j_behaviour : behaviour;
  j_template : template;
  j_deliveries : (int * Message.t) array; (* what this client will send *)
  j_finish : bool; (* send Finish after the stream *)
  j_cut : int; (* for Crash_mid/Truncate_frame: drop after this many *)
}

type worker = {
  w_id : int;
  mutable w_conn : Engine.conn_id option;
  mutable w_decoder : Wire.decoder;
  mutable w_session : int; (* server session id, -1 when none *)
  mutable w_phase : phase;
  mutable w_job : job option;
  mutable w_done : bool;
}

type counters = {
  mutable c_terminal : int;
  mutable c_wrong : int;
  mutable c_clean_anomaly : int;
  mutable c_verdicts : int;
  mutable c_aborted_jobs : int;
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
  let in_order = Array.mapi (fun j m -> (j + 1, m)) t.t_msgs in
  let total = Array.length in_order in
  match b with
  | Clean ->
      {
        j_index = index;
        j_behaviour = b;
        j_template = t;
        j_deliveries = in_order;
        j_finish = true;
        j_cut = max_int;
      }
  | Node_faults ->
      let plan =
        Faults.random
          ~seed:(cfg.seed lxor (index * 2654435761))
          ~n:total ~crash:0.3 ~truncate:0.15 ~flip:0.1 ~duplicate:0.1
          ~spoof:0.05 ()
      in
      let deliveries, _ = Faults.apply plan t.t_msgs in
      {
        j_index = index;
        j_behaviour = b;
        j_template = t;
        j_deliveries = Array.of_list deliveries;
        j_finish = true;
        j_cut = max_int;
      }
  | Crash_mid | Truncate_frame ->
      {
        j_index = index;
        j_behaviour = b;
        j_template = t;
        j_deliveries = in_order;
        j_finish = false;
        j_cut = max 1 (total / 2);
      }
  | Corrupt_byte ->
      {
        j_index = index;
        j_behaviour = b;
        j_template = t;
        j_deliveries = in_order;
        j_finish = false;
        j_cut = max 1 (total / 2);
      }
  | Stall ->
      {
        j_index = index;
        j_behaviour = b;
        j_template = t;
        j_deliveries = in_order;
        j_finish = false;
        j_cut = max 1 (total / 2);
      }

let feed_str engine cid s =
  Engine.feed_bytes engine cid (Bytes.unsafe_of_string s) ~off:0
    ~len:(String.length s)

let corrupt_frame s =
  (* flip a bit inside the payload region so the header parses but the
     digest check fires *)
  let b = Bytes.of_string s in
  let i = min (Bytes.length b - 1) (Wire.header_bytes + 2) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

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
      let counters =
        {
          c_terminal = 0;
          c_wrong = 0;
          c_clean_anomaly = 0;
          c_verdicts = 0;
          c_aborted_jobs = 0;
        }
      in
      let workers =
        Array.init cfg.conns (fun w_id ->
            {
              w_id;
              w_conn = None;
              w_decoder = Wire.decoder ();
              w_session = -1;
              w_phase = Idle;
              w_job = None;
              w_done = false;
            })
      in
      let job_terminal w ~verdict ~payload =
        (match (w.w_job, verdict) with
        | Some j, Some status -> (
            counters.c_verdicts <- counters.c_verdicts + 1;
            (match status with
            | Frame.Decided ->
                if payload <> j.j_template.t_expected then
                  counters.c_wrong <- counters.c_wrong + 1
            | Frame.Degraded | Frame.Inconclusive -> ());
            match j.j_behaviour with
            | Clean ->
                if status <> Frame.Decided || payload <> j.j_template.t_expected
                then counters.c_clean_anomaly <- counters.c_clean_anomaly + 1
            | _ -> ())
        | Some j, None -> (
            counters.c_aborted_jobs <- counters.c_aborted_jobs + 1;
            (* a clean session must never end without a verdict *)
            match j.j_behaviour with
            | Clean -> counters.c_clean_anomaly <- counters.c_clean_anomaly + 1
            | _ -> ())
        | None, _ -> ());
        if w.w_job <> None then counters.c_terminal <- counters.c_terminal + 1;
        w.w_job <- None;
        w.w_session <- -1;
        w.w_phase <- Idle
      in
      let drop_conn w =
        (match w.w_conn with
        | Some cid -> Engine.close_conn engine cid
        | None -> ());
        w.w_conn <- None;
        w.w_decoder <- Wire.decoder ()
      in
      let handle_server_frames w =
        match w.w_conn with
        | None -> ()
        | Some cid ->
            let out = Engine.take_output engine cid in
            if out <> "" then
              Wire.push w.w_decoder (Bytes.unsafe_of_string out) ~off:0
                ~len:(String.length out);
            let continue = ref true in
            while !continue do
              match Wire.next w.w_decoder with
              | Wire.Awaiting -> continue := false
              | Wire.Corrupt _ ->
                  (* a server must never emit corrupt bytes; surface as
                     an anomaly by dropping the conn (job -> aborted) *)
                  job_terminal w ~verdict:None ~payload:"";
                  drop_conn w;
                  continue := false
              | Wire.Frame { kind; payload } -> (
                  match Frame.decode_server ~kind payload with
                  | Error _ ->
                      job_terminal w ~verdict:None ~payload:"";
                      drop_conn w;
                      continue := false
                  | Ok (Frame.Welcome _) | Ok (Frame.Pong _) -> ()
                  | Ok (Frame.Opened { session; credit; _ }) ->
                      if w.w_phase = Opening then begin
                        w.w_session <- session;
                        w.w_phase <- Streaming { sent = 0; window = credit }
                      end
                  | Ok (Frame.Credit { session; credit }) ->
                      if session = w.w_session then begin
                        match w.w_phase with
                        | Streaming { sent; window } ->
                            w.w_phase <-
                              Streaming { sent; window = window + credit }
                        | _ -> ()
                      end
                  | Ok (Frame.Verdict { session; status; payload; _ }) ->
                      if session = w.w_session then
                        job_terminal w ~verdict:(Some status) ~payload
                  | Ok (Frame.Rejected _) ->
                      (* admission said no: job ends typed; retry not
                         modelled, the shed counter carries the signal *)
                      job_terminal w ~verdict:None ~payload:""
                  | Ok (Frame.Error _) ->
                      (* typed quarantine: the conn is dead *)
                      job_terminal w ~verdict:None ~payload:"";
                      drop_conn w;
                      continue := false)
            done
      in
      let step_worker w =
        (match w.w_phase with
        | Idle ->
            if w.w_job = None && !next_job < cfg.sessions then begin
              w.w_job <- Some (job_for cfg templates !next_job);
              incr next_job
            end;
            if w.w_job = None then w.w_done <- true
            else begin
              (match w.w_conn with
              | Some _ -> ()
              | None -> (
                  match Engine.open_conn engine with
                  | Ok cid ->
                      w.w_conn <- Some cid;
                      w.w_decoder <- Wire.decoder ();
                      feed_str engine cid
                        (Frame.encode_client
                           (Frame.Hello { version = Frame.version }))
                  | Error _ -> ()));
              match (w.w_conn, w.w_job) with
              | Some cid, Some j ->
                  feed_str engine cid
                    (Frame.encode_client
                       (Frame.Open
                          {
                            open_id = j.j_index;
                            protocol = cfg.protocol;
                            n = cfg.n;
                            trace = 0L;
                          }));
                  w.w_phase <- Opening
              | _ -> ()
            end
        | Opening -> ()
        | Stalled -> ()
        | Awaiting -> ()
        | Streaming { sent; window } -> (
            match (w.w_conn, w.w_job) with
            | Some cid, Some j ->
                let total = Array.length j.j_deliveries in
                let stop = min total j.j_cut in
                let sent = ref sent and window = ref window in
                let cut = ref false in
                while (not !cut) && !sent < stop && !window > 0 do
                  let node, payload = j.j_deliveries.(!sent) in
                  let frame =
                    Frame.encode_client
                      (Frame.Msg { session = w.w_session; node; payload })
                  in
                  (match j.j_behaviour with
                  | Corrupt_byte when !sent = stop - 1 ->
                      feed_str engine cid (corrupt_frame frame);
                      cut := true
                  | Truncate_frame when !sent = stop - 1 ->
                      feed_str engine cid
                        (String.sub frame 0 (String.length frame / 2));
                      drop_conn w;
                      cut := true
                  | _ -> feed_str engine cid frame);
                  incr sent;
                  decr window
                done;
                if !cut then begin
                  match j.j_behaviour with
                  | Truncate_frame -> job_terminal w ~verdict:None ~payload:""
                  | _ -> w.w_phase <- Awaiting (* corrupt: await Error *)
                end
                else if !sent >= stop then
                  (match j.j_behaviour with
                  | Crash_mid ->
                      drop_conn w;
                      job_terminal w ~verdict:None ~payload:""
                  | Stall -> w.w_phase <- Stalled (* idle timeout resolves *)
                  | _ ->
                      if j.j_finish then begin
                        feed_str engine cid
                          (Frame.encode_client
                             (Frame.Finish { session = w.w_session }));
                        w.w_phase <- Awaiting
                      end
                      else w.w_phase <- Awaiting)
                else w.w_phase <- Streaming { sent = !sent; window = !window }
            | _ ->
                (* connection evaporated mid-stream *)
                job_terminal w ~verdict:None ~payload:""));
        handle_server_frames w
      in
      let t0 = Unix.gettimeofday () in
      let settle = ref 0 in
      let max_settle =
        (* enough virtual time for every deadline to fire after the last
           job is handed out, with slack *)
        int_of_float ((engine_cfg.Engine.deadline_s /. tick_dt) *. 4.0) + 1000
      in
      let all_done () = Array.for_all (fun w -> w.w_done) workers in
      while (not (all_done ())) && !settle < max_settle do
        Array.iter (fun w -> if not w.w_done then step_worker w) workers;
        Engine.tick engine;
        Array.iter (fun w -> if not w.w_done then handle_server_frames w) workers;
        vnow := !vnow +. tick_dt;
        if !next_job >= cfg.sessions then incr settle
      done;
      let wall = Unix.gettimeofday () -. t0 in
      (* anything still in flight after settling is unterminated *)
      let unterminated =
        Array.fold_left
          (fun acc w -> if w.w_job <> None then acc + 1 else acc)
          0 workers
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
                (fun acc it ->
                  match it.Flight.i_note with
                  | Some ("verdict", _) -> acc + 1
                  | _ -> acc)
                0 d.Flight.d_items
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
        o_sessions = counters.c_terminal;
        o_stats = s;
        o_wrong_decided = counters.c_wrong;
        o_clean_anomalies = counters.c_clean_anomaly;
        o_unterminated = unterminated;
        o_flight_recorded = fl_recorded;
        o_flight_dropped = fl_dropped;
        o_flight_findings = fl_findings;
        o_flight_missing = fl_missing;
        o_faulty = cfg.faulty;
        o_wall_s = wall;
        o_rate = float_of_int counters.c_terminal /. wall;
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
    "{\"protocol\": %S, \"n\": %d, \"sessions\": %d, \"decided\": %d, \
     \"degraded\": %d, \"inconclusive\": %d, \"aborted\": %d, \
     \"quarantines\": %d, \"quarantine_escapes\": %d, \"sheds\": %d, \
     \"timeouts_idle\": %d, \"timeouts_deadline\": %d, \"late_frames\": %d, \
     \"wrong_decided\": %d, \"clean_anomalies\": %d, \"unterminated\": %d, \
     \"flight_recorded\": %d, \"flight_dropped\": %d, \
     \"flight_findings\": %d, \"flight_missing\": %d, \
     \"faulty\": %.3f, \"wall_s\": %.6f, \"rate_per_s\": %.1f}"
    o.o_protocol o.o_n o.o_sessions st.decided st.degraded st.inconclusive
    st.aborted st.quarantines st.quarantine_escapes st.sheds st.timeouts_idle
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
