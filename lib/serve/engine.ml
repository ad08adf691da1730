open Core

type config = {
  max_sessions : int;
  max_sessions_per_conn : int;
  max_conns : int;
  session_credit : int;
  max_frame_bytes : int;
  max_output_bytes : int;
  deadline_s : float;
  idle_timeout_s : float;
  retry_after_ms : int;
  domains : int option;
}

let default_config =
  {
    max_sessions = 4096;
    max_sessions_per_conn = 64;
    max_conns = 1024;
    session_credit = 256;
    max_frame_bytes = 1 lsl 20;
    max_output_bytes = 4 lsl 20;
    deadline_s = 30.;
    idle_timeout_s = 10.;
    retry_after_ms = 250;
    domains = None;
  }

(* Ticks with fewer dirty sessions than this fold inline: below it the
   pool's fork and join cost more than the referee work they spread. *)
let par_threshold = 4

type conn_id = int

(* A session's referee fold, output type hidden behind its renderer. *)
type sess_state =
  | Sess : {
      feed : 'a Core.Verdict.t Core.Protocol.feed;
      render : 'a -> string;
    }
      -> sess_state

type finish_cause = Client_finish | Idle_expire | Deadline_expire

type session = {
  sid : int;
  s_conn : conn_id;
  s_trace : int64;
  s_label : string;
  s_budget : Bound_audit.budget option;
  s_n : int;
  mutable state : sess_state;
  mutable pending : (int * Message.t) list; (* reversed arrival order *)
  mutable window : int; (* Msg frames the client may still send *)
  mutable finish_cause : finish_cause option;
  mutable dirty : bool; (* already listed in [t.dirty_sids] *)
  mutable absorb_log : (int * int) list; (* (id, bits), reversed; traced *)
  mutable max_bits : int;
  mutable total_bits : int;
  opened_at : float;
  mutable last_activity : float;
}

type conn = {
  cid : conn_id;
  decoder : Wire.decoder;
  out : Buffer.t;
  mutable c_trace : int64; (* minted at Hello; 0L before the handshake *)
  mutable c_sessions : int list;
  mutable quarantined : bool;
  mutable close_after_flush : bool;
}

type stats = {
  conns_opened : int;
  sessions_opened : int;
  decided : int;
  degraded : int;
  inconclusive : int;
  aborted : int;
  sheds : int;
  drain_rejections : int;
  rej_unknown_protocol : int;
  rej_bad_n : int;
  rej_session_limit : int;
  rej_evidence : int;
  quarantines : int;
  quarantine_escapes : int;
  late_frames : int;
  timeouts_idle : int;
  timeouts_deadline : int;
  frames : int;
  bytes_in : int;
  live_sessions : int;
}

(* The engine's only counters: the [refnet_serve_*] series, read back
   by [stats]. *)
type instruments = {
  i_sessions : Metrics.Counter.counter;
  i_decided : Metrics.Counter.counter;
  i_degraded : Metrics.Counter.counter;
  i_inconclusive : Metrics.Counter.counter;
  i_aborts : Metrics.Counter.counter;
  i_sheds : Metrics.Counter.counter;
  i_drains : Metrics.Counter.counter;
  i_quarantines : Metrics.Counter.counter;
  i_escapes : Metrics.Counter.counter;
  i_late : Metrics.Counter.counter;
  i_timeout_idle : Metrics.Counter.counter;
  i_timeout_deadline : Metrics.Counter.counter;
  i_frames : Metrics.Counter.counter;
  i_bytes : Metrics.Counter.counter;
  i_live : Metrics.Gauge.gauge;
  i_queue : Metrics.Gauge.gauge;
  i_reject : Frame.reject_reason -> Metrics.Counter.counter;
}

type t = {
  cfg : config;
  clock : unit -> float;
  trace : Trace.sink;
  metrics : Metrics.t option;
      (* the caller's registry: the pool and the per-trace anomaly
         series report here only, so an unobserved engine pays nothing
         for them *)
  inst : instruments; (* in [metrics], or a private registry *)
  flight : Flight.t option;
  evidence : (int64, string) Hashtbl.t;
      (* trace ids found mid-flight in boot-scanned crash dumps; a
         client echoing one in [Open.trace] is refused with the summary *)
  trace_seed : int64;
  conns : (conn_id, conn) Hashtbl.t;
  sessions : (int, session) Hashtbl.t;
  mutable trace_ctr : int;
  mutable next_cid : int;
  mutable next_sid : int;
  mutable dirty_sids : int list;
  mutable is_draining : bool;
}

let make_instruments m =
  let c = Metrics.Counter.counter m in
  let verdict outcome =
    c (Metrics.series "refnet_serve_verdicts_total" [ ("outcome", outcome) ])
  in
  let timeout kind =
    c (Metrics.series "refnet_serve_timeouts_total" [ ("kind", kind) ])
  in
  let rej reason =
    c
      (Metrics.series "refnet_serve_rejects_total"
         [ ("reason", Frame.reject_reason_to_string reason) ])
  in
  (* pre-create all six series so a clean run still exports them at 0 *)
  let r_overloaded = rej Frame.Overloaded in
  let r_draining = rej Frame.Draining in
  let r_unknown = rej Frame.Unknown_protocol in
  let r_bad_n = rej Frame.Bad_n in
  let r_session_limit = rej Frame.Session_limit in
  let r_evidence = rej Frame.Evidence in
  {
    i_sessions = c "refnet_serve_sessions_total";
    i_decided = verdict "decided";
    i_degraded = verdict "degraded";
    i_inconclusive = verdict "inconclusive";
    i_aborts = c "refnet_serve_aborts_total";
    i_sheds = c "refnet_serve_sheds_total";
    i_drains = c "refnet_serve_drain_rejections_total";
    i_quarantines = c "refnet_serve_quarantines_total";
    i_escapes = c "refnet_serve_quarantine_escapes_total";
    i_late = c "refnet_serve_late_frames_total";
    i_timeout_idle = timeout "idle";
    i_timeout_deadline = timeout "deadline";
    i_frames = c "refnet_serve_frames_total";
    i_bytes = c "refnet_serve_bytes_total";
    i_live = Metrics.Gauge.gauge m "refnet_serve_sessions_live";
    i_queue = Metrics.Gauge.gauge m "refnet_serve_queue_depth";
    i_reject =
      (function
      | Frame.Overloaded -> r_overloaded
      | Frame.Draining -> r_draining
      | Frame.Unknown_protocol -> r_unknown
      | Frame.Bad_n -> r_bad_n
      | Frame.Session_limit -> r_session_limit
      | Frame.Evidence -> r_evidence);
  }

(* splitmix64 finalizer: seeds and advances the trace-id sequence.
   Deterministic given the clock, so a virtual-clock engine mints the
   same ids every run. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ?clock ?(trace = Trace.null) ?metrics ?flight cfg =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  let registry =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    cfg;
    clock;
    trace;
    metrics;
    inst = make_instruments registry;
    flight;
    evidence = Hashtbl.create 16;
    trace_seed = mix64 (Int64.of_float (clock () *. 1e6));
    conns = Hashtbl.create 64;
    sessions = Hashtbl.create 256;
    trace_ctr = 0;
    next_cid = 1;
    next_sid = 1;
    dirty_sids = [];
    is_draining = false;
  }

let count = Metrics.Counter.incr

(* ---------- session tracing + flight recording ---------- *)

let mint_trace t =
  t.trace_ctr <- t.trace_ctr + 1;
  let id = mix64 (Int64.add t.trace_seed (Int64.of_int t.trace_ctr)) in
  if Int64.equal id 0L then 1L else id

let fl_event t ~trace ev =
  match t.flight with None -> () | Some f -> Flight.record f ~trace ev

let fl_note t ~trace ~code ~detail =
  match t.flight with None -> () | Some f -> Flight.note f ~trace ~code ~detail

(* Anomalies carry the session trace id as a label so one scrape links
   a quarantine or evidence refusal to its flight dump.  Only these
   low-frequency series get the dimension — per-trace labels on the hot
   counters would explode the registry. *)
let anomaly t ~kind ~trace =
  if not (Int64.equal trace 0L) then
    match t.metrics with
    | None -> ()
    | Some m ->
        Metrics.Counter.incr
          (Metrics.Counter.counter m
             (Metrics.series "refnet_serve_anomaly_total"
                [ ("kind", kind); ("trace_id", Flight.hex_of_trace trace) ]))

let load_evidence t entries =
  List.iter
    (fun (trace, summary) ->
      if not (Int64.equal trace 0L) then Hashtbl.replace t.evidence trace summary)
    entries

let evidence_count t = Hashtbl.length t.evidence

(* ---------- session teardown ---------- *)

let conn_of t s = Hashtbl.find_opt t.conns s.s_conn

(* Every session leaves the table here: after its verdict, or [abort]ed
   without one. *)
let retire t s =
  Hashtbl.remove t.sessions s.sid;
  match conn_of t s with
  | None -> ()
  | Some c -> c.c_sessions <- List.filter (fun sid -> sid <> s.sid) c.c_sessions

let abort t s =
  if Hashtbl.mem t.sessions s.sid then begin
    retire t s;
    count t.inst.i_aborts
  end

let abort_conn t conn =
  List.iter
    (fun sid -> Option.iter (abort t) (Hashtbl.find_opt t.sessions sid))
    conn.c_sessions

(* ---------- output and quarantine ---------- *)

(* The one quarantine path: count it, record it, tear the connection's
   sessions down and close with a typed error.  The error goes out even
   when the egress buffer has no room left for it: the unread output is
   dropped instead. *)
let quarantine t conn code detail =
  if not conn.quarantined then begin
    conn.quarantined <- true;
    count t.inst.i_quarantines;
    anomaly t ~kind:"quarantine" ~trace:conn.c_trace;
    fl_note t ~trace:conn.c_trace ~code:"quarantine"
      ~detail:(Frame.error_code_to_string code ^ ": " ^ detail);
    abort_conn t conn;
    if not conn.close_after_flush then begin
      let bytes = Frame.encode_server (Frame.Error { code; detail }) in
      if Buffer.length conn.out + String.length bytes > t.cfg.max_output_bytes
      then Buffer.clear conn.out;
      Buffer.add_string conn.out bytes
    end;
    conn.close_after_flush <- true
  end

(* A peer whose egress buffer would pass [max_output_bytes] is not
   reading: it is quarantined as a slow consumer, and the output it
   never read is dropped first. *)
let send t conn frame =
  if not conn.close_after_flush then begin
    let bytes = Frame.encode_server frame in
    if Buffer.length conn.out + String.length bytes > t.cfg.max_output_bytes
    then begin
      Buffer.clear conn.out;
      quarantine t conn Frame.Slow_consumer "egress full"
    end
    else Buffer.add_string conn.out bytes
  end

(* The one Verdict builder, for referee verdicts and client aborts. *)
let verdict_frame s ~timeout (v : string Verdict.t) =
  let status, payload, (r : Verdict.fault_report) =
    match v with
    | Verdict.Decided p -> (Frame.Decided, p, Verdict.empty_report)
    | Verdict.Degraded (p, r) -> (Frame.Degraded, p, r)
    | Verdict.Inconclusive reason -> (Frame.Inconclusive, reason, Verdict.empty_report)
  in
  Frame.Verdict
    {
      session = s.sid;
      status;
      timeout;
      payload;
      missing = List.length r.missing;
      malformed = List.length r.malformed;
      duplicated = List.length r.duplicated;
      undetermined = List.length r.undetermined;
      trace = s.s_trace;
    }

(* ---------- connection lifecycle ---------- *)

let open_conn t =
  if Hashtbl.length t.conns >= t.cfg.max_conns then
    Error
      (Printf.sprintf "connection limit %d reached" t.cfg.max_conns)
  else begin
    let cid = t.next_cid in
    t.next_cid <- cid + 1;
    Hashtbl.replace t.conns cid
      {
        cid;
        decoder = Wire.decoder ~max_frame:t.cfg.max_frame_bytes ();
        out = Buffer.create 256;
        c_trace = 0L;
        c_sessions = [];
        quarantined = false;
        close_after_flush = false;
      };
    Ok cid
  end

let close_conn t cid =
  match Hashtbl.find_opt t.conns cid with
  | None -> ()
  | Some conn ->
      abort_conn t conn;
      Hashtbl.remove t.conns cid

let take_output t cid =
  match Hashtbl.find_opt t.conns cid with
  | None -> ""
  | Some conn ->
      if Buffer.length conn.out = 0 then ""
      else begin
        let s = Buffer.contents conn.out in
        Buffer.clear conn.out;
        s
      end

let wants_close t cid =
  match Hashtbl.find_opt t.conns cid with
  | None -> true
  | Some conn -> conn.close_after_flush && Buffer.length conn.out = 0

(* ---------- frame handling ---------- *)

let mark_dirty t s =
  if not s.dirty then begin
    s.dirty <- true;
    t.dirty_sids <- s.sid :: t.dirty_sids
  end

(* Every refusal funnels through here: the per-reason counter, the
   labelled [refnet_serve_rejects_total] series and the flight note all
   stay in lockstep with the wire reply. *)
let reject t conn ~open_id ?(trace = 0L) ?(detail = "") reason =
  let trace = if Int64.equal trace 0L then conn.c_trace else trace in
  (match reason with
  | Frame.Overloaded -> count t.inst.i_sheds
  | Frame.Draining -> count t.inst.i_drains
  | Frame.Evidence -> anomaly t ~kind:"evidence_reject" ~trace
  | Frame.Unknown_protocol | Frame.Bad_n | Frame.Session_limit -> ());
  count (t.inst.i_reject reason);
  let code = match reason with Frame.Evidence -> "evidence" | _ -> "reject" in
  let note_detail =
    if detail = "" then Frame.reject_reason_to_string reason else detail
  in
  fl_note t ~trace ~code ~detail:note_detail;
  send t conn
    (Frame.Rejected
       { open_id; reason; retry_after_ms = t.cfg.retry_after_ms; trace; detail })

let handle_open t conn ~open_id ~protocol ~n ~trace:req_trace =
  match
    if Int64.equal req_trace 0L then None
    else Hashtbl.find_opt t.evidence req_trace
  with
  | Some summary ->
      (* the id was found mid-flight in a crash dump: refuse to resume
         and hand the evidence back instead of silently forgetting *)
      reject t conn ~open_id ~trace:req_trace ~detail:summary Frame.Evidence
  | None ->
  if t.is_draining then reject t conn ~open_id Frame.Draining
  else if Hashtbl.length t.sessions >= t.cfg.max_sessions then
    reject t conn ~open_id Frame.Overloaded
  else if List.length conn.c_sessions >= t.cfg.max_sessions_per_conn then
    reject t conn ~open_id Frame.Session_limit
  else
    match Registry.lookup ~spec:protocol ~n with
    | Error _ ->
        (* distinguish a malformed spec from a bad size for the reply *)
        let reason =
          match Registry.max_n protocol with
          | Some _ -> Frame.Bad_n
          | None -> Frame.Unknown_protocol
        in
        reject t conn ~open_id reason
    | Ok (Registry.Entry { protocol = p; render }) ->
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        let now = t.clock () in
        let s_trace =
          if Int64.equal req_trace 0L then conn.c_trace else req_trace
        in
        let s =
          {
            sid;
            s_conn = conn.cid;
            s_trace;
            s_label = p.Protocol.name;
            s_budget = p.Protocol.budget;
            s_n = n;
            state = Sess { feed = Protocol.start p.Protocol.referee ~n; render };
            pending = [];
            window = t.cfg.session_credit;
            finish_cause = None;
            dirty = false;
            absorb_log = [];
            max_bits = 0;
            total_bits = 0;
            opened_at = now;
            last_activity = now;
          }
        in
        Hashtbl.replace t.sessions sid s;
        conn.c_sessions <- sid :: conn.c_sessions;
        count t.inst.i_sessions;
        fl_note t ~trace:s_trace ~code:"open"
          ~detail:(Printf.sprintf "%s n=%d sid=%d" s.s_label n sid);
        fl_event t ~trace:s_trace (Trace.Span_begin { label = s.s_label; n });
        send t conn
          (Frame.Opened { open_id; session = sid; credit = t.cfg.session_credit })

let late t = count t.inst.i_late

(* The one session lookup for Msg, Finish and Abort: a frame for a
   session that is gone (it raced a server-side verdict) is late, one
   for another connection's session is a protocol violation. *)
let with_session t conn sid f =
  match Hashtbl.find_opt t.sessions sid with
  | None -> late t
  | Some s when s.s_conn <> conn.cid ->
      quarantine t conn Frame.Protocol_violation
        (Printf.sprintf "session %d belongs to another connection" sid)
  | Some s -> f s

let handle_frame t conn frame =
  match frame with
  | Frame.Hello { version } ->
      if version <> Frame.version then
        quarantine t conn Frame.Protocol_violation
          (Printf.sprintf "unsupported protocol version %d" version)
      else begin
        let trace = mint_trace t in
        conn.c_trace <- trace;
        send t conn (Frame.Welcome { version = Frame.version; trace })
      end
  | Frame.Ping { token } -> send t conn (Frame.Pong { token })
  | Frame.Bye ->
      (* a graceful goodbye still abandons its open sessions *)
      abort_conn t conn;
      conn.close_after_flush <- true
  | Frame.Open { open_id; protocol; n; trace } ->
      handle_open t conn ~open_id ~protocol ~n ~trace
  | Frame.Msg { session; node; payload } ->
      with_session t conn session (fun s ->
          if s.finish_cause <> None then late t
          else if s.window = 0 then begin
            let detail =
              Printf.sprintf "session %d exceeded its credit window" session
            in
            fl_note t ~trace:s.s_trace ~code:"credit" ~detail;
            quarantine t conn Frame.Credit_exceeded detail
          end
          else begin
            let b = Message.bits payload in
            s.window <- s.window - 1;
            s.pending <- (node, payload) :: s.pending;
            if not (Trace.is_null t.trace) then
              s.absorb_log <- (node, b) :: s.absorb_log;
            fl_event t ~trace:s.s_trace (Trace.Referee_absorb { id = node; bits = b });
            if b > s.max_bits then s.max_bits <- b;
            s.total_bits <- s.total_bits + b;
            s.last_activity <- t.clock ();
            mark_dirty t s
          end)
  | Frame.Finish { session } ->
      with_session t conn session (fun s ->
          if s.finish_cause = None then begin
            s.finish_cause <- Some Client_finish;
            s.last_activity <- t.clock ();
            mark_dirty t s
          end
          else late t)
  | Frame.Abort { session } ->
      with_session t conn session (fun s ->
          send t conn
            (verdict_frame s ~timeout:Frame.No_timeout
               (Verdict.Inconclusive "aborted by client"));
          fl_note t ~trace:s.s_trace ~code:"verdict" ~detail:"aborted by client";
          abort t s)

let feed_bytes t cid b ~off ~len =
  match Hashtbl.find_opt t.conns cid with
  | None -> ()
  | Some conn ->
      if not conn.quarantined then begin
        Metrics.Counter.add t.inst.i_bytes len;
        Wire.push conn.decoder b ~off ~len;
        let continue = ref true in
        while !continue do
          match Wire.next conn.decoder with
          | Wire.Awaiting -> continue := false
          | Wire.Corrupt detail ->
              quarantine t conn Frame.Corrupt_frame detail;
              continue := false
          | Wire.Frame { kind; payload } -> (
              count t.inst.i_frames;
              match Frame.decode_client ~kind payload with
              | Error detail ->
                  quarantine t conn Frame.Corrupt_frame detail;
                  continue := false
              | Ok frame -> (
                  (* outermost shell: a bug in frame handling must not
                     kill the daemon — count it and quarantine instead *)
                  try handle_frame t conn frame
                  with e ->
                    count t.inst.i_escapes;
                    quarantine t conn Frame.Internal (Printexc.to_string e)))
        done
      end

(* ---------- tick: timeouts + session work on the pool ---------- *)

(* An immutable snapshot of one session's batch: the only thing a pool
   task sees. *)
type work_item = {
  w_state : sess_state;
  w_msgs : (int * Message.t) array; (* arrival order *)
  w_finish : finish_cause option;
}

type work_out =
  | Advanced of sess_state
  | Finished of finish_cause * string Verdict.t
  | Crashed of string

let run_item it =
  match it.w_state with
  | Sess { feed; render } -> (
      try
        let feed =
          Array.fold_left
            (fun f (id, m) -> Protocol.feed f ~id m)
            feed it.w_msgs
        in
        match it.w_finish with
        | None -> Advanced (Sess { feed; render })
        | Some cause -> Finished (cause, Verdict.map render (Protocol.finish feed))
      with e -> Crashed (Printexc.to_string e))

let emit_session_trace t s =
  if not (Trace.is_null t.trace) then begin
    (* the whole span is emitted contiguously from the engine thread at
       verdict time, so concurrent sessions never interleave events and
       Trace.balanced_spans holds for any serve trace.  The span label
       shows the session trace id outermost and session-aware sinks
       also get it as a leading "session_id" JSON field. *)
    let label =
      if Int64.equal s.s_trace 0L then s.s_label
      else Printf.sprintf "%s[trace=%s]" s.s_label (Flight.hex_of_trace s.s_trace)
    in
    let emit ev =
      if Int64.equal s.s_trace 0L then Trace.emit t.trace ev
      else Trace.emit_session t.trace ~session:s.s_trace ev
    in
    emit (Trace.Span_begin { label; n = s.s_n });
    List.iter
      (fun (id, bits) -> emit (Trace.Referee_absorb { id; bits }))
      (List.rev s.absorb_log);
    emit
      (Trace.Referee_done
         {
           label;
           n = s.s_n;
           max_bits = s.max_bits;
           total_bits = s.total_bits;
           budget = s.s_budget;
         });
    emit (Trace.Span_end { label; n = s.s_n })
  end

let finish_session t s cause v =
  let timeout =
    match cause with
    | Client_finish -> Frame.No_timeout
    | Idle_expire -> Frame.Idle_timeout
    | Deadline_expire -> Frame.Deadline_timeout
  in
  Option.iter (fun conn -> send t conn (verdict_frame s ~timeout v)) (conn_of t s);
  (* the session is gone when this tick quarantined its connection, the
     verdict's own overflow included: it was aborted, not decided *)
  if Hashtbl.mem t.sessions s.sid then begin
    fl_event t ~trace:s.s_trace
      (Trace.Referee_done
         {
           label = s.s_label;
           n = s.s_n;
           max_bits = s.max_bits;
           total_bits = s.total_bits;
           budget = s.s_budget;
         });
    let status, counter =
      match v with
      | Verdict.Decided _ -> ("decided", t.inst.i_decided)
      | Verdict.Degraded _ -> ("degraded", t.inst.i_degraded)
      | Verdict.Inconclusive _ -> ("inconclusive", t.inst.i_inconclusive)
    in
    fl_note t ~trace:s.s_trace ~code:"verdict" ~detail:status;
    count counter;
    (match cause with
    | Client_finish -> ()
    | Idle_expire -> count t.inst.i_timeout_idle
    | Deadline_expire -> count t.inst.i_timeout_deadline);
    emit_session_trace t s;
    retire t s
  end

let tick_body t =
  let now = t.clock () in
  (* 1. timeouts: force a finish cause onto expired sessions *)
  Hashtbl.iter
    (fun _ s ->
      if s.finish_cause = None then
        if now -. s.opened_at >= t.cfg.deadline_s then begin
          s.finish_cause <- Some Deadline_expire;
          mark_dirty t s
        end
        else if now -. s.last_activity >= t.cfg.idle_timeout_s then begin
          s.finish_cause <- Some Idle_expire;
          mark_dirty t s
        end)
    t.sessions;
  (* 2. collect dirty sessions in a deterministic order; [mark_dirty]
     listed each one once *)
  let live =
    Array.of_list
      (List.filter_map (Hashtbl.find_opt t.sessions)
         (List.sort compare t.dirty_sids))
  in
  t.dirty_sids <- [];
  let backlog = ref 0 in
  let items =
    Array.map
      (fun s ->
        s.dirty <- false;
        let msgs = Array.of_list (List.rev s.pending) in
        s.pending <- [];
        backlog := !backlog + Array.length msgs;
        { w_state = s.state; w_msgs = msgs; w_finish = s.finish_cause })
      live
  in
  (* 3. fold each session's batch as one task: one domain absorbs a
     session's messages in arrival order, so the transcript is
     bit-identical to a sequential run at any pool width *)
  let outs =
    if Array.length items < par_threshold then Array.map run_item items
    else
      Parallel.map_array ?domains:t.cfg.domains ?metrics:t.metrics run_item
        items
  in
  (* 4. apply results in session order on the engine thread *)
  Array.iteri
    (fun idx s ->
      match outs.(idx) with
      | Advanced st ->
          s.state <- st;
          let absorbed = Array.length items.(idx).w_msgs in
          if absorbed > 0 then begin
            s.window <- s.window + absorbed;
            Option.iter
              (fun conn ->
                send t conn (Frame.Credit { session = s.sid; credit = absorbed }))
              (conn_of t s)
          end
      | Finished (cause, v) -> finish_session t s cause v
      | Crashed detail ->
          (* a referee exception escaped the hardened combinators:
             tear the whole connection down as poisoned *)
          Option.iter
            (fun conn -> quarantine t conn Frame.Internal detail)
            (conn_of t s))
    live;
  (* 5. refresh gauges: the queue depth is the backlog this tick absorbed *)
  Metrics.Gauge.set t.inst.i_live (float_of_int (Hashtbl.length t.sessions));
  Metrics.Gauge.set t.inst.i_queue (float_of_int !backlog)

let tick t =
  try tick_body t
  with e ->
    (* must never happen: tick is the daemon's heartbeat.  Swallow,
       count, and let the selftest/CI gate on the counter. *)
    ignore (Printexc.to_string e);
    count t.inst.i_escapes

let begin_drain t = t.is_draining <- true
let draining t = t.is_draining
let idle t = Hashtbl.length t.sessions = 0

let stats t =
  let v = Metrics.Counter.value and i = t.inst in
  {
    conns_opened = t.next_cid - 1;
    sessions_opened = v i.i_sessions;
    decided = v i.i_decided;
    degraded = v i.i_degraded;
    inconclusive = v i.i_inconclusive;
    aborted = v i.i_aborts;
    sheds = v i.i_sheds;
    drain_rejections = v i.i_drains;
    rej_unknown_protocol = v (i.i_reject Frame.Unknown_protocol);
    rej_bad_n = v (i.i_reject Frame.Bad_n);
    rej_session_limit = v (i.i_reject Frame.Session_limit);
    rej_evidence = v (i.i_reject Frame.Evidence);
    quarantines = v i.i_quarantines;
    quarantine_escapes = v i.i_escapes;
    late_frames = v i.i_late;
    timeouts_idle = v i.i_timeout_idle;
    timeouts_deadline = v i.i_timeout_deadline;
    frames = v i.i_frames;
    bytes_in = v i.i_bytes;
    live_sessions = Hashtbl.length t.sessions;
  }
