(* Simulation workloads: million-node runs in-process, one run being
   one "session" (one referee decision over n messages).  The traced
   pass times each layer on the same input, and serves the workload's
   graph as a [count] census session so the engine and daemon layers
   are measured on it too. *)

open Core
module Gs = Refnet_graph.Graph_source

type kind = Forest | Bcc_regular

type cfg = {
  kind : kind;
  n : int;
  chunk : int; (* referee feed chunk for the forest run *)
  sample : int; (* nodes whose messages feed the bits/message/wire layers *)
}

let bandwidth = 2

type input = {
  src : Gs.t;
  spec : string;
  expect_connected : bool; (* Bcc_regular: the circulant oracle *)
  rounds : int; (* Bcc_regular: [rounds_for] at the family's degree *)
}

(* Offsets of a circulant, read back from the neighbours of vertex 1. *)
let offsets src = List.map (fun v -> v - 1) (Gs.neighbors src 1)

let regular cfg s =
  let spec = Printf.sprintf "implicit:regular:%d:4:%d" cfg.n s in
  let src = Gs.parse spec in
  {
    src;
    spec;
    expect_connected = Bcc_connectivity.circulant_connected ~n:cfg.n (offsets src);
    rounds = Bcc_connectivity.rounds_for ~bandwidth ~max_degree:4;
  }

(* [first_regular cfg ~seed ~connected] is [(s, c)]: [c] is the
   circulant of the first seed [s >= seed] (seeds below 1 read as 1)
   whose connectivity is [connected]. *)
let first_regular cfg ~seed ~connected =
  let first = max 1 seed in
  let rec find s =
    let c = regular cfg s in
    if c.expect_connected = connected then (s, c)
    else if s - first > 1000 then
      Util.wrong "no circulant with connected=%b near seed %d" connected seed
    else find (s + 1)
  in
  find first

(* How many circulants the BCC window cycles through.  Connected
   circulants differ too: the same run took 2.0 s on one and 2.9 s on
   another, so timing one graph per seed lets the seed move the median
   by more than the bound. *)
let circulants = 8

(* The measured inputs: the path, or the first [circulants] connected
   circulants at or above [seed].  A disconnected circulant makes the
   referee send bits in the last round too, and runs up to 1.6 times as
   long, so mixing them in would let the seed, not the code, move
   [nodes_per_s]. *)
let make_inputs cfg ~seed =
  match cfg.kind with
  | Forest ->
      let spec = Printf.sprintf "implicit:path:%d" cfg.n in
      [| { src = Gs.parse spec; spec; expect_connected = true; rounds = 1 } |]
  | Bcc_regular ->
      let rec take k s acc =
        if k = 0 then Array.of_list (List.rev acc)
        else
          let s, c = first_regular cfg ~seed:s ~connected:true in
          take (k - 1) (s + 1) (c :: acc)
      in
      take circulants seed []

(* [contrast cfg ~seed] is, for BCC, the first disconnected circulant
   at or above [seed]: checked once per run, untimed, so every run
   checks the referee on both verdicts. *)
let contrast cfg ~seed =
  match cfg.kind with
  | Forest -> []
  | Bcc_regular -> [ snd (first_regular cfg ~seed ~connected:false) ]

let protocol input = Bcc_connectivity.protocol ~rounds:input.rounds ~bandwidth ()

(* [run_once] is one run of the workload; [true] when the verdict
   matches the oracle. *)
let run_once ?domains cfg input =
  match cfg.kind with
  | Forest ->
      let ok, t =
        Simulator.run_source ?domains ~chunk:cfg.chunk Forest_protocol.recognize input.src
      in
      ok && t.Simulator.max_bits = Forest_protocol.message_bits cfg.n
  | Bcc_regular ->
      let out, _ = Bcc.run_source ?domains (protocol input) input.src in
      out = Some input.expect_connected

(* ---------- set-up: source, oracle and pool start-up ---------- *)

(* [probe_ready cfg ~seed] is what a fresh process does before its
   first run: build the source and the oracle, start the domain pool. *)
let probe_ready cfg ~seed =
  ignore (make_inputs cfg ~seed : input array);
  Parallel.iter_range (4 * Parallel.domain_count ()) ignore

(* Set-up time is a cold start: from spawning a fresh copy of this
   program in probe mode ([probe_argv]) to its "ready" line, median of
   [setup_reps].  The inputs for the run are then built in-process. *)
let setup_reps = 15

let setup cfg ~seed ~probe_argv =
  let exe = probe_argv.(0) in
  let cold () =
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = Span.now () in
    let pid = Unix.create_process exe probe_argv Unix.stdin w Unix.stderr in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    let dt = Span.now () -. t0 in
    close_in ic;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 when line = "ready" -> dt
    | _ -> Util.wrong "set-up probe failed (%S)" line
  in
  let times = List.init setup_reps (fun _ -> cold ()) in
  (make_inputs cfg ~seed, Util.median times)

(* ---------- end to end ---------- *)

type window = {
  runs : float list; (* seconds *)
  ok : int;
  bad : int;
  wall : float;
  alloc_per_run : float;
  majors_per_run : float;
}

(* The untimed warm-up checks the [contrast] inputs first, then runs
   the first input once.  The window cycles through [inputs]. *)
let e2e_window cfg inputs ~contrast ~seconds =
  List.iter
    (fun i ->
      if not (run_once cfg i) then Util.wrong "warm-up run on %s disagreed with the oracle" i.spec)
    (contrast @ [ inputs.(0) ]);
  let a0 = Gc.allocated_bytes () and g0 = Outcome.major_collections () in
  let t_start = Span.now () in
  let runs = ref [] and ok = ref 0 and bad = ref 0 in
  while Span.now () -. t_start < seconds do
    let input = inputs.((!ok + !bad) mod Array.length inputs) in
    let t0 = Span.now () in
    if run_once cfg input then incr ok else incr bad;
    runs := (Span.now () -. t0) :: !runs
  done;
  let wall = Span.now () -. t_start in
  let k = float_of_int (!ok + !bad) in
  {
    runs = !runs;
    ok = !ok;
    bad = !bad;
    wall;
    alloc_per_run = (Gc.allocated_bytes () -. a0) /. k;
    majors_per_run = float_of_int (Outcome.major_collections () - g0) /. k;
  }

(* ---------- traced pass ---------- *)

(* [bcc_timed rec_ ~session cfg input] is the program's own BCC run,
   [Bcc.run_source] on one domain (so the clocks need no locking), with
   the protocol's callbacks wrapped: node init/send/receive time goes
   to [local], [r_absorb] to [referee.absorb], and each broadcast and
   the finish get a [referee.finish] span.  Node and absorb calls are
   too many to span one by one, so each layer's summed time becomes one
   span.  Whatever is left of the run (the engine's own schedule and
   accounting) is [bcc.schedule]'s self time.  Also returns the
   messages of nodes 1 .. [cfg.sample] in every round. *)
let bcc_timed rec_ ~session cfg input =
  let on = rec_.Span.on in
  let local = ref 0. and absorb = ref 0. in
  let timed clock f =
    if not on then f ()
    else begin
      let t0 = Span.now () in
      let v = f () in
      clock := !clock +. (Span.now () -. t0);
      v
    end
  in
  let samples = ref [] in
  let p = protocol input in
  let referee =
    match p.Bcc.referee with
    | Bcc.Referee r ->
        Bcc.Referee
          {
            r with
            Bcc.r_absorb =
              (fun ~n ~round st ~id m ->
                if id <= cfg.sample then samples := (id, m) :: !samples;
                timed absorb (fun () -> r.Bcc.r_absorb ~n ~round st ~id m));
            r_broadcast =
              (fun ~n ~round st ->
                Span.with_span rec_ ~session ~units:1. "referee.finish" (fun () ->
                    r.Bcc.r_broadcast ~n ~round st));
            r_finish =
              (fun ~n st ->
                Span.with_span rec_ ~session ~units:1. "referee.finish" (fun () ->
                    r.Bcc.r_finish ~n st));
          }
  in
  let wrapped =
    {
      p with
      Bcc.init = (fun v -> timed local (fun () -> p.Bcc.init v));
      send = (fun ~round s -> timed local (fun () -> p.Bcc.send ~round s));
      receive =
        (fun ~round ~broadcast s -> timed local (fun () -> p.Bcc.receive ~round ~broadcast s));
      referee;
    }
  in
  let out =
    Span.with_span rec_ ~session "bcc.schedule" (fun () ->
        let out, _ = Bcc.run_source ~domains:1 wrapped input.src in
        (* one unit per node and round: a send, an absorb *)
        let units = float_of_int (cfg.n * input.rounds) in
        Span.add_total rec_ ~session ~units "local" ~seconds:!local;
        Span.add_total rec_ ~session ~units "referee.absorb" ~seconds:!absorb;
        out)
  in
  (out, Array.of_list (List.rev !samples))

type census = {
  c_msgs : Layers.sample;
  c_expected : string;
}

(* The workload's graph as one [count] session: every node's sealed
   degree, summed by the registry's referee. *)
let census cfg input =
  match Serve.Registry.lookup ~spec:"count" ~n:cfg.n with
  | Error e -> Util.wrong "%s" e
  | Ok entry ->
      let c_msgs, c_expected = Layers.offline entry input.src in
      { c_msgs; c_expected }

type pass = { wall_s : float; census_s : float }

let layer_pass cfg input census rec_ =
  let session = 0 in
  let t0 = Span.now () in
  Span.with_span rec_ ~session "run" (fun () ->
      let src = input.src in
      Layers.graph_source rec_ ~session src;
      let sample =
        match cfg.kind with
        | Forest ->
            let msgs =
              Array.mapi (fun i m -> (i + 1, m))
                (Layers.local rec_ ~session Forest_protocol.recognize src)
            in
            let p = Forest_protocol.recognize in
            if not (Layers.referee rec_ ~session ~n:cfg.n p.Protocol.referee msgs) then
              Util.wrong "referee: the path was not recognised as a forest";
            Array.sub msgs 0 (min cfg.n cfg.sample)
        | Bcc_regular ->
            let out, sample = bcc_timed rec_ ~session cfg input in
            if out <> Some input.expect_connected then
              Util.wrong "referee: timed BCC verdict disagrees with the circulant oracle";
            sample
      in
      Layers.bits rec_ ~session sample;
      Layers.seal_unseal rec_ ~session ~n:cfg.n sample;
      let label = match cfg.kind with Forest -> "forest" | Bcc_regular -> "bcc" in
      ignore (Layers.wire rec_ ~session ~protocol:label ~n:cfg.n sample : int);
      let rounds =
        match cfg.kind with
        | Forest -> max 3 (Bcc_connectivity.rounds_for ~bandwidth ~max_degree:2)
        | Bcc_regular -> input.rounds
      in
      (match Layers.bcc rec_ ~session ~rounds src with
      | Some v, _ when v = input.expect_connected -> ()
      | _ -> Util.wrong "bcc: verdict disagrees with the oracle"));
  let rp = Layers.replay_open ~deadline:150. () in
  let c0 = Span.now () in
  let payload =
    Span.with_span rec_ ~session:1 "engine.session" (fun () ->
        Layers.replay_session rp rec_ ~session:1 ~protocol:"count" ~n:cfg.n census.c_msgs)
  in
  let census_s = Span.now () -. c0 in
  if payload <> census.c_expected then
    Util.wrong "engine: census decided %S, offline %S" payload census.c_expected;
  { wall_s = Span.now () -. t0; census_s }

(* The census once more, through a real daemon over loopback TCP. *)
let socket_census cfg census ~refnet =
  let d = Proc.spawn ~refnet ~extra:[ "--deadline"; "150"; "--idle-timeout"; "150" ] () in
  let elapsed =
    match Serve.Client.connect d.Proc.listen with
    | Error e -> Util.wrong "census: %s" e
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            if Serve.Client.handshake c <> Ok () then Util.wrong "census: handshake failed";
            let deliveries = Array.to_list census.c_msgs in
            let t0 = Span.now () in
            match Serve.Client.run_session c ~protocol:"count" ~n:cfg.n deliveries with
            | Ok v
              when v.Serve.Client.status = Serve.Frame.Decided
                   && v.Serve.Client.payload = census.c_expected ->
                Span.now () -. t0
            | Ok v -> Util.wrong "census: daemon answered %S" v.Serve.Client.payload
            | Error e -> Util.wrong "census: %s" e)
  in
  let scraped = Proc.scrape d in
  (match Proc.stop d with Ok () -> () | Error e -> Util.wrong "census: %s" e);
  (elapsed, scraped)

(* ---------- the run ---------- *)

let run cfg ~refnet ~seed ~seconds ~traced ~spans_path ~probe_argv =
  let inputs, setup_s = setup cfg ~seed ~probe_argv in
  let input = inputs.(0) in
  let contrast = contrast cfg ~seed in
  Outcome.say "inputs: %s (n=%d), in-process; traced pass on the first%s"
    (String.concat ", " (Array.to_list (Array.map (fun i -> i.spec) inputs)))
    cfg.n
    (String.concat "" (List.map (fun c -> "; warm-up check on disconnected " ^ c.spec) contrast));
  let steal0 = Util.steal_s () in
  let w = e2e_window cfg inputs ~contrast ~seconds in
  Outcome.say "host steal during the window: %.2f s of %.2f s" (Util.steal_s () -. steal0) w.wall;
  let rss = Util.vm_hwm_mb None in
  let runs = w.ok + w.bad in
  let ms q = Util.quantile w.runs q *. 1e3 in
  let nodes_per_s = float_of_int cfg.n /. Util.median w.runs in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" setup_s;
        m "sessions_per_s" "1/s" (float_of_int runs /. w.wall);
        m "session_p50_ms" "ms" (ms 0.5);
        m "session_p90_ms" "ms" (ms 0.9);
        m "nodes_per_s" "1/s" nodes_per_s;
        m "peak_rss_mb" "MB" rss;
      ]
  in
  Outcome.say "runs: %d attempted, %d failed (failed_frac %.6f); run times (ms): %s" runs w.bad
    (float_of_int w.bad /. float_of_int (max 1 runs))
    (String.concat " " (List.rev_map (fun t -> Printf.sprintf "%.1f" (t *. 1e3)) w.runs));
  let layers =
    if not traced then []
    else begin
      let c = census cfg input in
      (* untraced passes on both sides of the traced one, so warm-up
         does not count as tracing overhead *)
      let before = layer_pass cfg input c (Span.create ()) in
      let rec_ = Span.create () in
      rec_.Span.on <- true;
      Layers.frames := 0;
      let on = layer_pass cfg input c rec_ in
      let frames = !Layers.frames in
      let off = layer_pass cfg input c (Span.create ()) in
      let off_wall_s = (before.wall_s +. off.wall_s) /. 2. in
      let time_run domains =
        let t0 = Span.now () in
        if not (run_once ?domains cfg input) then
          Util.wrong "speed-up run disagreed with the oracle";
        Span.now () -. t0
      in
      let t_default = time_run None in
      let t_one = time_run (Some 1) in
      let socket_s, scraped = socket_census cfg c ~refnet in
      Outcome.say "census session (count, n=%d): socket %.4f s - in-process %.4f s" cfg.n
        socket_s off.census_s;
      Outcome.say "traced pass: %.0f nodes/s with spans, %.0f without"
        (float_of_int cfg.n /. on.wall_s)
        (float_of_int cfg.n /. off_wall_s);
      Outcome.print_span_table rec_;
      Span.write_jsonl rec_ spans_path;
      Outcome.layer_metrics rec_ ~frames
        {
          Outcome.speedup = t_one /. t_default;
          inproc_sessions_per_s = 1. /. off.census_s;
          daemon_us_per_session = (socket_s -. off.census_s) *. 1e6;
          sheds = scraped "refnet_serve_sheds_total";
          quarantines = scraped "refnet_serve_quarantines_total";
          escapes = scraped "refnet_serve_quarantine_escapes_total";
          client_p99_ms = ms 0.99;
          alloc_per_node = w.alloc_per_run /. float_of_int cfg.n;
          alloc_per_session = w.alloc_per_run;
          major_collections = w.majors_per_run;
          overhead_x = on.wall_s /. off_wall_s;
        }
    end
  in
  { Outcome.attempted = runs; failed = w.bad; problems = []; e2e; layers }
