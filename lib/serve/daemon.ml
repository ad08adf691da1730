open Core

type listen = Tcp of string * int | Unix_sock of string

let parse_listen s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad listen spec %S (tcp:PORT or unix:PATH)" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then Error "unix: listen spec needs a path"
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> (
              match int_of_string_opt rest with
              | Some port when port >= 0 && port < 65536 ->
                  Ok (Tcp ("127.0.0.1", port))
              | _ -> Error (Printf.sprintf "bad tcp port %S" rest))
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some port when port >= 0 && port < 65536 -> Ok (Tcp (host, port))
              | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
      | _ -> Error (Printf.sprintf "unknown listen scheme %S" scheme))

let listen_to_string = function
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
  | Unix_sock p -> "unix:" ^ p

type opts = {
  listen : listen;
  metrics_listen : listen option;
  metrics_file : string option;
  engine_cfg : Engine.config;
  trace : Trace.sink;
  metrics : Metrics.t option;
  flight_dir : string option;
  flight_capacity : int option;
  tick_interval_s : float;
  max_run_s : float option;
}

let default_opts ~listen =
  {
    listen;
    metrics_listen = None;
    metrics_file = None;
    engine_cfg = Engine.default_config;
    trace = Trace.null;
    metrics = None;
    flight_dir = None;
    flight_capacity = None;
    tick_interval_s = 0.02;
    max_run_s = None;
  }

let sockaddr_of_listen = function
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          (* lint: allow blocking-call -- bind-time resolution: runs once while opening the listener, before the loop serves anyone *)
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> Unix.inet_addr_loopback)
      in
      Unix.ADDR_INET (addr, port)
  | Unix_sock path -> Unix.ADDR_UNIX path

(* Sessions are chains of small frames, each waiting on the last.
   Nagle's algorithm holds a small frame while an earlier one is
   unacknowledged, and the peer delays that ACK (~40 ms on Linux), so
   every TCP session end sets TCP_NODELAY.  Unix sockets have no Nagle. *)
let set_nodelay spec fd =
  match spec with
  | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Unix_sock _ -> ()

(* FD_SETSIZE: [Unix.select] fails with EINVAL on any fd from here up.
   A [Unix.file_descr] is the fd number on Unix. *)
let selectable (fd : Unix.file_descr) = (Obj.magic fd : int) < 1024

let socket spec =
  Unix.socket
    (match spec with Tcp _ -> Unix.PF_INET | Unix_sock _ -> Unix.PF_UNIX)
    Unix.SOCK_STREAM 0

let open_listener spec =
  (match spec with
  | Unix_sock path when Sys.file_exists path -> (
      (* a stale socket file from a previous crash-only exit *)
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = socket spec in
  (try
     (match spec with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind fd (sockaddr_of_listen spec);
     Unix.listen fd 128;
     Unix.set_nonblock fd;
     Ok fd
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     Error
       (Printf.sprintf "cannot listen on %s: %s" (listen_to_string spec)
          (Unix.error_message err)))

let write_metrics_file m path =
  let snap = Metrics.snapshot m in
  let text =
    if Filename.check_suffix path ".prom" then Metrics.to_prometheus snap
    else Metrics.to_json snap
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

(* Answer one Prometheus scrape.  Scrapers send a full GET immediately,
   so a short blocking read-then-respond on the event loop is fine; the
   receive timeout bounds the damage a stalled scraper can do.
   [refresh] brings the runtime gauges up to date first. *)
let answer_scrape ~refresh metrics fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2;
         let buf = Bytes.create 1024 in
         ignore (Unix.read fd buf 0 (Bytes.length buf))
       with Unix.Unix_error _ -> ());
      let body =
        match metrics with
        | Some m ->
            refresh ();
            Metrics.to_prometheus (Metrics.snapshot m)
        | None -> "# metrics disabled\n"
      in
      let resp =
        Printf.sprintf
          "HTTP/1.0 200 OK\r\n\
           Content-Type: text/plain; version=0.0.4\r\n\
           Content-Length: %d\r\n\
           Connection: close\r\n\
           \r\n\
           %s"
          (String.length body) body
      in
      try ignore (Unix.write_substring fd resp 0 (String.length resp))
      with Unix.Unix_error _ -> ())

type sconn = {
  fd : Unix.file_descr;
  cid : Engine.conn_id;
  mutable pending : string; (* output taken from the engine ... *)
  mutable sent : int; (* ... and how much of it is written *)
}

(* ---------- flight recorder plumbing ---------- *)

let is_flight_file name =
  String.length name > 7
  && String.sub name 0 7 = "flight-"
  && Filename.check_suffix name ".flight"

(* Scan [dir] for dumps left by previous incarnations and list the
   sessions they show mid-flight.  A dump that fails to read or decode
   contributes what it can: decode is total, I/O errors skip the file. *)
let boot_scan dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names |> List.sort compare
      |> List.filter is_flight_file
      |> List.concat_map (fun name ->
             match Flight.decode_file (Filename.concat dir name) with
             | Ok d -> Flight.open_traces d.Flight.d_items
             | Error _ -> [])

let run opts =
  let drain_requested = ref false in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain_requested := true))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> drain_requested := true))
  in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore () =
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  match open_listener opts.listen with
  | Error msg ->
      restore ();
      prerr_endline ("refnet serve: " ^ msg);
      1
  | Ok listener -> (
      let metrics_listener =
        match opts.metrics_listen with
        | None -> Ok None
        | Some spec -> (
            match open_listener spec with
            | Ok fd -> Ok (Some fd)
            | Error msg -> Error msg)
      in
      match metrics_listener with
      | Error msg ->
          (try Unix.close listener with Unix.Unix_error _ -> ());
          restore ();
          prerr_endline ("refnet serve: " ^ msg);
          1
      | Ok metrics_listener ->
          let flight =
            match opts.flight_dir with
            | None -> None
            | Some dir ->
                (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
                Some (Flight.create ?capacity:opts.flight_capacity (), dir)
          in
          (* the flight heartbeat reads the engine's anomaly counters
             off the registry it reports to, so a recording daemon
             keeps one even when nothing scrapes it *)
          let registry =
            match (opts.metrics, flight) with
            | None, Some _ -> Some (Metrics.create ())
            | m, _ -> m
          in
          let engine =
            Engine.create ?metrics:registry ~trace:opts.trace
              ?flight:(Option.map fst flight) opts.engine_cfg
          in
          (* refuse-with-evidence: sessions a previous incarnation left
             mid-flight are answered [Rejected {reason = Evidence}] *)
          (match flight with
          | None -> ()
          | Some (_, dir) -> Engine.load_evidence engine (boot_scan dir));
          let dump_seq = ref 0 in
          let write_dump () =
            match flight with
            | None -> ()
            | Some (f, dir) ->
                incr dump_seq;
                let path =
                  Filename.concat dir
                    (Printf.sprintf "flight-%d-%d.flight" (Unix.getpid ())
                       !dump_seq)
                in
                (match Flight.dump_to_file f path with
                | Ok () -> ()
                | Error msg ->
                    prerr_endline ("refnet serve: flight dump failed: " ^ msg))
          in
          let dump_requested = ref false in
          let old_usr1 =
            match flight with
            | None -> None
            | Some _ ->
                Some
                  (Sys.signal Sys.sigusr1
                     (Sys.Signal_handle (fun _ -> dump_requested := true)))
          in
          (* the final flush also fires on the CLI's diagnostic exit
             paths; idempotent so the normal end-of-run dump wins *)
          let final_dumped = ref false in
          let final_dump () =
            if not !final_dumped then begin
              final_dumped := true;
              write_dump ()
            end
          in
          if flight <> None then at_exit final_dump;
          let flight_gauges =
            match (opts.metrics, flight) with
            | Some m, Some _ ->
                Some
                  ( Metrics.Gauge.gauge m "refnet_flight_recorded_total",
                    Metrics.Gauge.gauge m "refnet_flight_drops_total",
                    Metrics.Gauge.gauge m "refnet_flight_occupancy" )
            | _ -> None
          in
          let gc_gauges =
            match opts.metrics with
            | None -> None
            | Some m ->
                Some
                  ( Metrics.Gauge.gauge m "refnet_gc_minor_words",
                    Metrics.Gauge.gauge m "refnet_gc_major_words",
                    Metrics.Gauge.gauge m "refnet_gc_heap_words" )
          in
          (* runtime gauges are refreshed when they are read: on a
             scrape and at exit, not on every wakeup *)
          let refresh_runtime_gauges () =
            (match gc_gauges with
            | None -> ()
            | Some (g_minor, g_major, g_heap) ->
                let q = Gc.quick_stat () in
                Metrics.Gauge.set g_minor q.Gc.minor_words;
                Metrics.Gauge.set g_major q.Gc.major_words;
                Metrics.Gauge.set g_heap (float_of_int q.Gc.heap_words));
            match (flight_gauges, flight) with
            | Some (g_rec, g_drop, g_occ), Some (f, _) ->
                Metrics.Gauge.set g_rec (float_of_int (Flight.recorded f));
                Metrics.Gauge.set g_drop (float_of_int (Flight.dropped f));
                Metrics.Gauge.set g_occ (float_of_int (Flight.occupancy f))
            | _ -> ()
          in
          (* dump on every anomaly the engine counts — a quarantine
             (poison frame, credit violation), an inconclusive verdict
             or an evidence refusal — so the rings reach disk while the
             story they tell is still fresh *)
          let flight_heartbeat =
            match (flight, registry) with
            | Some _, Some m ->
                let c labels name =
                  Metrics.Counter.counter m (Metrics.series name labels)
                in
                let quarantines = c [] "refnet_serve_quarantines_total"
                and inconclusive =
                  c [ ("outcome", "inconclusive") ] "refnet_serve_verdicts_total"
                and evidence =
                  c
                    [ ("reason", Frame.reject_reason_to_string Frame.Evidence) ]
                    "refnet_serve_rejects_total"
                in
                let last_anomalies = ref 0 in
                fun () ->
                  let anomalies =
                    Metrics.Counter.value quarantines
                    + Metrics.Counter.value inconclusive
                    + Metrics.Counter.value evidence
                  in
                  if !dump_requested || anomalies > !last_anomalies then begin
                    dump_requested := false;
                    last_anomalies := anomalies;
                    write_dump ()
                  end
            | _ -> ignore
          in
          let conns : (Unix.file_descr, sconn) Hashtbl.t = Hashtbl.create 64 in
          let started = Unix.gettimeofday () in
          let drain_started = ref None in
          let accepting = ref true in
          let rbuf = Bytes.create 65536 in
          let drop sc =
            Hashtbl.remove conns sc.fd;
            Engine.close_conn engine sc.cid;
            try Unix.close sc.fd with Unix.Unix_error _ -> ()
          in
          (* take the listener's whole backlog, until EAGAIN.  A
             connection the engine refuses, or whose fd [select] cannot
             watch, is closed and counted as a shed. *)
          let rec accept_all () =
            match Unix.accept listener with
            | exception Unix.Unix_error _ -> ()
            | fd, _ ->
                (match
                   if selectable fd then Engine.open_conn engine
                   else Error "fd past FD_SETSIZE"
                 with
                | Ok cid ->
                    Unix.set_nonblock fd;
                    set_nodelay opts.listen fd;
                    Hashtbl.replace conns fd { fd; cid; pending = ""; sent = 0 }
                | Error _ -> (
                    Engine.shed_conn engine;
                    try Unix.close fd with Unix.Unix_error _ -> ()));
                accept_all ()
          in
          (* Output is taken from the engine only once the previous take
             is written out, so nothing is copied twice and a slow
             reader's backlog stays in the engine, where
             [max_output_bytes] quarantines it.  [false] when the socket
             failed. *)
          let rec pump_out sc =
            if sc.sent = String.length sc.pending then begin
              sc.pending <- Engine.take_output engine sc.cid;
              sc.sent <- 0
            end;
            sc.sent = String.length sc.pending
            ||
            match
              Unix.single_write_substring sc.fd sc.pending sc.sent
                (String.length sc.pending - sc.sent)
            with
            | n ->
                sc.sent <- sc.sent + n;
                pump_out sc
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
            | exception Unix.Unix_error _ -> false
          in
          let flushed sc = sc.sent >= String.length sc.pending in
          let finished = ref false in
          let exit_code = ref 0 in
          while not !finished do
            let now = Unix.gettimeofday () in
            (match opts.max_run_s with
            | Some limit when (not !drain_requested) && now -. started >= limit
              ->
                drain_requested := true
            | _ -> ());
            if !drain_requested && !drain_started = None then begin
              drain_started := Some now;
              Engine.begin_drain engine;
              accepting := false
            end;
            (* a wedged drain still exits: crash-only means we prefer a
               clean-enough exit over hanging forever *)
            (match !drain_started with
            | Some t0
              when now -. t0
                   >= opts.engine_cfg.Engine.deadline_s
                      +. opts.engine_cfg.Engine.idle_timeout_s +. 2.0 ->
                finished := true
            | _ -> ());
            if not !finished then begin
              let rds =
                (if !accepting then [ listener ] else [])
                @ (match metrics_listener with Some fd -> [ fd ] | None -> [])
                @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
              in
              let wrs =
                Hashtbl.fold
                  (fun fd sc acc -> if flushed sc then acc else fd :: acc)
                  conns []
              in
              let readable, writable, _ =
                try Unix.select rds wrs [] opts.tick_interval_s
                with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
              in
              List.iter
                (fun fd ->
                  if fd = listener then accept_all ()
                  else if Some fd = metrics_listener then begin
                    match Unix.accept fd with
                    | scrape_fd, _ ->
                        answer_scrape ~refresh:refresh_runtime_gauges opts.metrics
                          scrape_fd
                    | exception Unix.Unix_error _ -> ()
                  end
                  else
                    match Hashtbl.find_opt conns fd with
                    | None -> ()
                    | Some sc -> (
                        match Unix.read sc.fd rbuf 0 (Bytes.length rbuf) with
                        | 0 -> drop sc
                        | n -> Engine.feed_bytes engine sc.cid rbuf ~off:0 ~len:n
                        | exception
                            Unix.Unix_error
                              ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                            ()
                        | exception Unix.Unix_error _ -> drop sc))
                readable;
              ignore writable;
              Engine.tick engine;
              flight_heartbeat ();
              let to_drop = ref [] in
              Hashtbl.iter
                (fun _ sc ->
                  if
                    (not (pump_out sc))
                    || (flushed sc && Engine.wants_close engine sc.cid)
                  then to_drop := sc :: !to_drop)
                conns;
              List.iter drop !to_drop;
              if
                !drain_started <> None
                && Engine.idle engine
                && Hashtbl.fold (fun _ sc acc -> acc && flushed sc) conns true
              then finished := true
            end
          done;
          Hashtbl.iter
            (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
            conns;
          (try Unix.close listener with Unix.Unix_error _ -> ());
          (match metrics_listener with
          | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ());
          (match opts.listen with
          | Unix_sock path -> (
              try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
          | Tcp _ -> ());
          final_dump ();
          refresh_runtime_gauges ();
          (match (opts.metrics, opts.metrics_file) with
          | Some m, Some path -> write_metrics_file m path
          | _ -> ());
          (match old_usr1 with
          | Some behaviour -> Sys.set_signal Sys.sigusr1 behaviour
          | None -> ());
          restore ();
          !exit_code)
