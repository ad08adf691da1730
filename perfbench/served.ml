(* Served workloads: closed-loop sessions against a real [refnet serve]
   subprocess over loopback TCP, then (traced) an in-process replay of
   the same seeded sessions with a span around every layer call. *)

open Core
open Serve
module Graph = Refnet_graph.Graph
module Generators = Refnet_graph.Generators
module Gs = Refnet_graph.Graph_source

type cfg = {
  protocol : string;
  n : int;
  conns : int;
  traced_sessions : int; (* sessions in each in-process layer pass *)
  selftest_sessions : int; (* sessions for the in-process selftest rate *)
}

type template = {
  graph : Graph.t;
  src : Gs.t;
  msgs : Layers.sample;
  deliveries : (int * Message.t) list;
  expected : string; (* offline referee's rendering of the verdict *)
}

let n_templates = 16

(* The selftest's recipe: seeded random trees, every fourth template a
   cycle, so the socket run, the replay and [Selftest.run] see the
   same inputs for the same seed. *)
let templates entry ~n ~seed =
  Array.init n_templates (fun i ->
      let st = Random.State.make [| seed; 7919 * (i + 1) |] in
      let graph =
        if i mod 4 = 3 && n >= 3 then Generators.cycle n else Generators.random_tree st n
      in
      let src = Gs.of_graph graph in
      let msgs, expected = Layers.offline entry src in
      { graph; src; msgs; deliveries = Array.to_list msgs; expected })

let lookup cfg =
  match Registry.lookup ~spec:cfg.protocol ~n:cfg.n with
  | Ok e -> e
  | Error e -> Util.wrong "%s" e

(* ---------- set-up: daemon spawn to first handshake + templates ---------- *)

let setup_reps = 3

let setup cfg ~refnet ~seed =
  let entry = lookup cfg in
  let times = ref [] in
  let rec rep k =
    let t0 = Span.now () in
    let d = Proc.spawn ~refnet () in
    let tpl = templates entry ~n:cfg.n ~seed in
    times := (Span.now () -. t0) :: !times;
    if k = setup_reps then (d, tpl)
    else begin
      (match Proc.stop d with Ok () -> () | Error e -> Util.wrong "set-up: %s" e);
      rep (k + 1)
    end
  in
  let d, tpl = rep 1 in
  (entry, d, tpl, Util.median !times)

(* ---------- end to end: closed loop over loopback TCP ---------- *)

type window = {
  latencies : float list; (* seconds *)
  ok : int;
  bad : int;
  wall : float;
}

let socket_window cfg (d : Proc.t) tpl ~seconds =
  let deadline = Span.now () +. seconds in
  let worker w () =
    match Client.connect d.Proc.listen with
    | Error e ->
        prerr_endline ("perfbench: " ^ e);
        ([], 0, 1)
    | Ok c ->
        let lat = ref [] and ok = ref 0 and bad = ref 0 in
        let i = ref w and alive = ref (Client.handshake c = Ok ()) in
        if not !alive then incr bad;
        while !alive && Span.now () < deadline do
          let t = tpl.(!i mod n_templates) in
          i := !i + cfg.conns;
          let t0 = Span.now () in
          (match Client.run_session c ~protocol:cfg.protocol ~n:cfg.n t.deliveries with
          | Ok v when v.Client.status = Frame.Decided && v.Client.payload = t.expected ->
              incr ok
          | Ok _ -> incr bad
          | Error e ->
              prerr_endline ("perfbench: session failed: " ^ e);
              incr bad;
              alive := false);
          lat := (Span.now () -. t0) :: !lat
        done;
        Client.close c;
        (!lat, !ok, !bad)
  in
  let t0 = Span.now () in
  let domains = List.init cfg.conns (fun w -> Domain.spawn (worker w)) in
  let results = List.map Domain.join domains in
  let wall = Span.now () -. t0 in
  List.fold_left
    (fun acc (l, o, b) ->
      { acc with latencies = List.rev_append l acc.latencies; ok = acc.ok + o; bad = acc.bad + b })
    { latencies = []; ok = 0; bad = 0; wall }
    results

(* ---------- traced pass: in-process replay, one span per layer call ---------- *)

type pass = {
  wall_s : float;
  replay_s : float list; (* in-process session latencies *)
  alloc_per_session : float;
  majors_per_session : float;
}

let layer_pass cfg entry tpl rec_ =
  match entry with
  | Registry.Entry { protocol = p; render } ->
      let rp = Layers.replay_open ~deadline:30. () in
      let replay_s = ref [] and alloc = ref 0. in
      let majors0 = Outcome.major_collections () in
      let t0 = Span.now () in
      for session = 0 to cfg.traced_sessions - 1 do
        let t = tpl.(session mod n_templates) in
        Span.with_span rec_ ~session "session" (fun () ->
            Layers.graph_source rec_ ~session t.src;
            let fresh = Layers.local rec_ ~session p t.src in
            Array.iteri
              (fun i m ->
                if not (Message.equal m (snd t.msgs.(i))) then
                  Util.wrong "local: node %d's message is not deterministic" (i + 1))
              fresh;
            Layers.bits rec_ ~session t.msgs;
            Layers.seal_unseal rec_ ~session ~n:cfg.n t.msgs;
            ignore (Layers.wire rec_ ~session ~protocol:cfg.protocol ~n:cfg.n t.msgs : int);
            (match Layers.referee rec_ ~session ~n:cfg.n p.Protocol.referee t.msgs with
            | Verdict.Decided a when render a = t.expected -> ()
            | _ -> Util.wrong "referee: template %d did not decide as offline" session);
            let rounds =
              max 3 (Bcc_connectivity.rounds_for ~bandwidth:2 ~max_degree:(Graph.max_degree t.graph))
            in
            (match Layers.bcc rec_ ~session ~rounds t.src with
            | Some true, _ -> ()
            | _ -> Util.wrong "bcc: template %d not decided connected" session);
            let a0 = Gc.allocated_bytes () in
            let s0 = Span.now () in
            let payload =
              Span.with_span rec_ ~session "engine.session" (fun () ->
                  Layers.replay_session rp rec_ ~session ~protocol:cfg.protocol ~n:cfg.n t.msgs)
            in
            replay_s := (Span.now () -. s0) :: !replay_s;
            alloc := !alloc +. (Gc.allocated_bytes () -. a0);
            if payload <> t.expected then
              Util.wrong "engine: session %d decided %S, offline %S" session payload t.expected)
      done;
      let wall_s = Span.now () -. t0 in
      let k = float_of_int cfg.traced_sessions in
      {
        wall_s;
        replay_s = !replay_s;
        alloc_per_session = !alloc /. k;
        majors_per_session = float_of_int (Outcome.major_collections () - majors0) /. k;
      }

let selftest_rate cfg ~seed ~domains =
  let st =
    {
      Selftest.sessions = cfg.selftest_sessions;
      conns = cfg.conns;
      n = cfg.n;
      protocol = cfg.protocol;
      faulty = 0.;
      seed;
      templates = n_templates;
    }
  in
  let engine_cfg = { Selftest.default_engine_cfg with Engine.domains } in
  let o = Selftest.run ~engine_cfg st in
  (match Selftest.passed o with
  | Ok () -> ()
  | Error e -> Util.wrong "in-process selftest: %s" e);
  o.Selftest.o_rate

(* ---------- the run ---------- *)

let run cfg ~refnet ~seed ~seconds ~traced ~spans_path =
  let entry, d, tpl, setup_s = setup cfg ~refnet ~seed in
  Outcome.say "inputs: %d templates of n=%d (seeded trees, every 4th a cycle), protocol %s, %d connections, closed loop"
    n_templates cfg.n cfg.protocol cfg.conns;
  let steal0 = Util.steal_s () in
  let w = socket_window cfg d tpl ~seconds in
  Outcome.say "host steal during the window: %.2f s of %.2f s" (Util.steal_s () -. steal0) w.wall;
  let scraped = Proc.scrape d in
  let sheds = scraped "refnet_serve_sheds_total"
  and quarantines = scraped "refnet_serve_quarantines_total"
  and escapes = scraped "refnet_serve_quarantine_escapes_total" in
  let rss = Proc.peak_rss_mb d in
  let problems = match Proc.stop d with Ok () -> [] | Error e -> [ e ] in
  let sessions = w.ok + w.bad in
  let ms q = Util.quantile w.latencies q *. 1e3 in
  let rate = float_of_int sessions /. w.wall in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" setup_s;
        m "sessions_per_s" "1/s" rate;
        m "session_p50_ms" "ms" (ms 0.5);
        m "session_p90_ms" "ms" (ms 0.9);
        m "nodes_per_s" "1/s" (rate *. float_of_int cfg.n);
        m "peak_rss_mb" "MB" rss;
      ]
  in
  Outcome.say "daemon counters: sheds=%.0f quarantines=%.0f escapes=%.0f" sheds quarantines escapes;
  let failed = w.bad + int_of_float (sheds +. quarantines +. escapes) in
  Outcome.say "sessions: %d attempted, %d failed (failed_frac %.6f), p99 %.3f ms, %d samples"
    sessions failed
    (if sessions = 0 then 1. else float_of_int failed /. float_of_int sessions)
    (ms 0.99) (List.length w.latencies);
  let layers =
    if not traced then []
    else begin
      (* untraced passes on both sides of the traced one, so warm-up
         does not count as tracing overhead *)
      let before = layer_pass cfg entry tpl (Span.create ()) in
      let rec_ = Span.create () in
      rec_.Span.on <- true;
      Layers.frames := 0;
      let on = layer_pass cfg entry tpl rec_ in
      let frames = !Layers.frames in
      let off = layer_pass cfg entry tpl (Span.create ()) in
      let off_wall_s = (before.wall_s +. off.wall_s) /. 2. in
      let rate_default = selftest_rate cfg ~seed ~domains:None in
      let rate_one = selftest_rate cfg ~seed ~domains:(Some 1) in
      let inproc_ms = Util.median off.replay_s *. 1e3 in
      Outcome.say "daemon cost: socket p50 %.4f ms - in-process p50 %.4f ms" (ms 0.5) inproc_ms;
      Outcome.say "traced pass: %.1f sessions/s with spans, %.1f without"
        (float_of_int cfg.traced_sessions /. on.wall_s)
        (float_of_int cfg.traced_sessions /. off_wall_s);
      Outcome.print_span_table rec_;
      Span.write_jsonl rec_ spans_path;
      Outcome.layer_metrics rec_ ~frames
        {
          Outcome.speedup = rate_default /. rate_one;
          inproc_sessions_per_s = rate_default;
          daemon_us_per_session = (ms 0.5 -. inproc_ms) *. 1e3;
          sheds;
          quarantines;
          escapes;
          client_p99_ms = ms 0.99;
          alloc_per_node = off.alloc_per_session /. float_of_int cfg.n;
          alloc_per_session = off.alloc_per_session;
          major_collections = off.majors_per_session;
          overhead_x = on.wall_s /. off_wall_s;
        }
    end
  in
  { Outcome.attempted = sessions; failed; problems; e2e; layers }
