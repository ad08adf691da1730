(** The serve daemon's transport-independent core.

    The engine owns connections, sessions, admission control,
    backpressure accounting, timeouts and quarantine; a transport
    ({!Daemon} for real sockets, {!Selftest} in-process) only moves
    bytes between it and the outside world:

    {v
      feed_bytes --> [decode] --> sessions --> tick --> take_output
    v}

    Crash-only discipline: nothing a client sends can raise out of
    [feed_bytes] or [tick].  Corrupt frames and protocol violations
    quarantine the offending connection (typed [Error] frame, sessions
    torn down, counter bumped); a referee exception that escapes the
    hardened combinators quarantines too.  If an exception ever reaches
    the engine's own outermost handlers it is swallowed and counted in
    [quarantine_escapes] — the selftest and CI gate on that counter
    being zero.

    Sharding: each {!tick} collects the sessions with queued input and
    folds every session's batch as one task.  The fold runs on the
    {!Core.Parallel} pool only when at least 4 sessions are dirty in
    the tick; below that the pool's fork and join cost more than the
    referee work they would spread, so the batches fold inline.  A
    session's messages are absorbed by exactly one domain in arrival
    order, so transcripts are bit-identical to a sequential run; which
    sessions share a domain never matters. *)

type config = {
  max_sessions : int;  (** global admission cap on live sessions *)
  max_sessions_per_conn : int;
  max_conns : int;
  session_credit : int;
      (** ingress window: a client may have at most this many [Msg]
          frames unacknowledged by [Credit] grants *)
  max_frame_bytes : int;
  max_output_bytes : int;
      (** egress cap per connection; a client that stops reading is
          quarantined as a slow consumer instead of growing the buffer *)
  deadline_s : float;  (** wall-clock budget for a whole session *)
  idle_timeout_s : float;  (** max quiet gap before a forced verdict *)
  retry_after_ms : int;  (** suggestion carried in [Overloaded] sheds *)
  domains : int option;  (** [Parallel] pool width override *)
}

val default_config : config

type t

(** [create ?clock ?trace ?metrics ?flight config].  [clock] (default
    [Unix.gettimeofday]) drives deadlines and idle timeouts; tests and
    the selftest inject a virtual clock so timeout paths run
    deterministically.  It also seeds the session trace-id sequence:
    each [Hello] mints a fresh 64-bit id (returned in [Welcome]) that
    tags every span, absorb, credit stall and quarantine the
    connection's sessions produce — in jsonl traces (as a leading
    ["session_id"] field and a ["[trace=<16hex>]"] label decoration;
    done events carry the protocol's own budget), in [Verdict] /
    [Rejected] reply frames, and in the optional {!Core.Flight}
    recorder.  [flight] receives a real-time record of opens, absorbs
    and dispositions, so a session interrupted by a crash leaves
    evidence even though trace sinks only emit at verdict time. *)
val create :
  ?clock:(unit -> float) ->
  ?trace:Core.Trace.sink ->
  ?metrics:Core.Metrics.t ->
  ?flight:Core.Flight.t ->
  config ->
  t

(** [load_evidence t entries] registers sessions found mid-flight in
    boot-scanned crash dumps (see {!Core.Flight.open_traces}).  An
    [Open] echoing one of these trace ids is answered with
    [Rejected {reason = Evidence}] carrying the summary in [detail] —
    the daemon refuses to resume what it cannot remember, with proof.
    Trace id 0 entries are ignored. *)
val load_evidence : t -> (int64 * string) list -> unit

val evidence_count : t -> int

type conn_id = int

(** [open_conn t] admits a connection, or explains why not
    (connection cap). *)
val open_conn : t -> (conn_id, string) result

(** [feed_bytes t c b ~off ~len] pushes received bytes.  Complete frames
    are handled immediately (handshake, opens, queueing); session work
    is deferred to {!tick}.  Never raises on hostile input.  Unknown or
    already-closed [c] is a no-op. *)
val feed_bytes : t -> conn_id -> bytes -> off:int -> len:int -> unit

(** [close_conn t c] — the peer vanished: live sessions on [c] are torn
    down as aborted (no verdict — there is nobody to send it to). *)
val close_conn : t -> conn_id -> unit

(** [tick t] advances time (timeouts), folds queued session work on the
    domain pool, grants credit, finishes sessions into verdict frames,
    and refreshes gauges.  Call it in the transport's event loop. *)
val tick : t -> unit

(** [take_output t c] drains bytes queued for the peer (empty string if
    none, or if [c] is unknown). *)
val take_output : t -> conn_id -> string

(** [wants_close t c] — the engine is done with [c] (quarantined or
    [Bye]); the transport should flush remaining output, then call
    {!close_conn} and close the socket. *)
val wants_close : t -> conn_id -> bool

(** [begin_drain t] stops admission ([Rejected Draining]); in-flight
    sessions finish normally or by timeout. *)
val begin_drain : t -> unit

val draining : t -> bool

(** [idle t] — no live sessions, hence no queued work (drain is
    complete once this holds and the transport has flushed). *)
val idle : t -> bool

(** Monotonic counters, read from the engine's [refnet_serve_*]
    {!Core.Metrics} counters: those of the registry passed to {!create},
    or of a private registry when none was.  [conns_opened] and
    [live_sessions] are read off the engine's own tables.

    The registry also holds two gauges that {!tick} refreshes:
    [refnet_serve_sessions_live] is the live session count after the
    tick, and [refnet_serve_queue_depth] is the backlog the tick
    absorbed — the number of [Msg] frames queued since the previous
    tick. *)
type stats = {
  conns_opened : int;
  sessions_opened : int;
  decided : int;
  degraded : int;
  inconclusive : int;
  aborted : int;  (** sessions ended without a verdict (peer vanished)
                      or by explicit client [Abort] *)
  sheds : int;  (** admission rejections with [Overloaded] *)
  drain_rejections : int;
  rej_unknown_protocol : int;
  rej_bad_n : int;
  rej_session_limit : int;
  rej_evidence : int;
      (** resume attempts refused with crash-dump evidence.  Together
          with [sheds] ([Overloaded]) and [drain_rejections]
          ([Draining]) these mirror the labelled
          [refnet_serve_rejects_total{reason=...}] series. *)
  quarantines : int;
  quarantine_escapes : int;  (** exceptions caught by the outermost
                                 shell — must be zero *)
  late_frames : int;  (** frames for already-finished sessions *)
  timeouts_idle : int;
  timeouts_deadline : int;
  frames : int;
  bytes_in : int;
  live_sessions : int;
}

val stats : t -> stats
