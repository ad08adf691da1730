(** Socket transport for the serve {!Engine}: accept loop, non-blocking
    reads/writes, the Prometheus metrics listener, and graceful drain.

    Exit semantics (the [refnet serve] contract):
    - [0] — clean shutdown: SIGTERM/SIGINT received, admission stopped,
      in-flight sessions finished or timed out, sinks flushed.
    - [1] — could not start (address in use, bad listen spec).
    The daemon never exits for anything a client does.  A connection
    past the engine's cap, or whose fd [select] cannot watch (1024 and
    up), is closed at accept and counted as a shed. *)

type listen = Tcp of string * int | Unix_sock of string

(** [parse_listen s] accepts ["tcp:HOST:PORT"], ["tcp:PORT"] (binds
    127.0.0.1) and ["unix:PATH"]. *)
val parse_listen : string -> (listen, string) result

val listen_to_string : listen -> string

(** [socket l] is a fresh stream socket of [l]'s address family. *)
val socket : listen -> Unix.file_descr

(** [sockaddr_of_listen l] resolves the bind/connect address (used by
    {!Client}). *)
val sockaddr_of_listen : listen -> Unix.sockaddr

(** [set_nodelay l fd] sets [TCP_NODELAY] on a connected socket when [l]
    is a [Tcp] address, and does nothing for Unix sockets.  Both ends of
    a session call it (the daemon at [accept], {!Client.connect}): a
    session is a chain of small frames, and Nagle's algorithm would hold
    each one for the peer's delayed ACK. *)
val set_nodelay : listen -> Unix.file_descr -> unit

type opts = {
  listen : listen;
  metrics_listen : listen option;
      (** serve a Prometheus text snapshot to any HTTP GET here *)
  metrics_file : string option;
      (** also write a final snapshot on shutdown ([.prom] extension
          selects Prometheus text, anything else JSON) *)
  engine_cfg : Engine.config;
  trace : Core.Trace.sink;
  metrics : Core.Metrics.t option;
  flight_dir : string option;
      (** attach a {!Core.Flight} recorder and keep crash evidence in
          this directory (created if missing).  Dumps are written to
          [flight-<pid>-<seq>.flight] on every engine anomaly
          (quarantine, inconclusive verdict, evidence refusal), on
          SIGUSR1, and once at exit (including the CLI's diagnostic
          exit paths, via [at_exit]).  On boot the directory is scanned
          and sessions found mid-flight are loaded as evidence: a
          client resuming such a trace id gets
          [Rejected {reason = Evidence}] with the summary.  With
          metrics attached, [refnet_flight_recorded_total],
          [refnet_flight_drops_total], [refnet_flight_occupancy] and
          [refnet_gc_*] gauges are refreshed when they are read: on
          each scrape and at exit. *)
  flight_capacity : int option;  (** per-domain ring entries *)
  tick_interval_s : float;
  max_run_s : float option;
      (** stop (as if SIGTERM) after this long — used by CI smoke tests
          so a wedged daemon cannot hang the job *)
}

val default_opts : listen:listen -> opts

(** [run opts] blocks until shutdown and returns the exit code. *)
val run : opts -> int
