(** In-process load generator + chaos campaign for the serve engine.

    Each client session is a {!Client.Session}, the machine the socket
    client runs: its flights are pushed through [Engine.feed_bytes] and
    server frames are decoded back from [take_output], so the selftest
    exercises exactly the bytes a socket client sends, minus the kernel.
    The engine runs on an injected {e virtual} clock, so timeout paths
    fire deterministically; only the throughput measurement uses the
    wall clock.  Each tick, every connection feeds what its session
    has to send, then the engine ticks, then the connections read.

    Chaos mode gives a configurable fraction of sessions a hostile
    behaviour.  [`Node_faults] mangles the session's input with a
    seeded {!Core.Faults} crash/truncate/flip/duplicate/spoof plan; the
    other four transform the machine's output bytes, letting through
    the [Open] and the first half of the [Msg] frames and then:
    - [`Crash_mid] — the connection drops
    - [`Truncate_frame] — only the first half of the last frame goes
      out, then the connection drops
    - [`Corrupt_byte] — one bit of the last frame's payload flips
      (byte [Wire.header_bytes + 2]), tripping the frame digest and the
      quarantine path
    - [`Stall] — nothing more goes out; the session must resolve by
      idle timeout

    Soundness bookkeeping: every [Decided] payload is compared against
    the template's fault-free rendering (string equality) — one mismatch
    is one counted lie.  The run fails if any lie, quarantine escape,
    unterminated session or clean-session anomaly is observed. *)

type cfg = {
  sessions : int;
  conns : int;  (** concurrent client connections *)
  n : int;  (** nodes per session *)
  protocol : string;  (** a {!Registry} spec *)
  faulty : float;  (** fraction of sessions given a chaos behaviour *)
  seed : int;
  templates : int;  (** distinct precomputed session inputs to cycle *)
}

val default_cfg : cfg

(** The engine config {!run} uses unless overridden: the default daemon
    config with short virtual-clock timeouts and a deeper admission
    cap. *)
val default_engine_cfg : Engine.config

type outcome = {
  o_protocol : string;
  o_n : int;
  o_sessions : int;  (** sessions that reached a terminal state *)
  o_stats : Engine.stats;  (** the engine's counters after the run *)
  o_wrong_decided : int;  (** [Decided] payloads that contradicted
                              ground truth — must be zero *)
  o_clean_anomalies : int;
      (** fault-free sessions that did not end [Decided]-equal-to-truth *)
  o_unterminated : int;  (** sessions with no verdict and no typed end *)
  o_flight_recorded : int;  (** flight-recorder lifetime entries *)
  o_flight_dropped : int;  (** ring overwrites before the post-run dump *)
  o_flight_findings : int;
      (** decode findings on the post-run dump — must be zero; [-1]
          when no recorder was attached *)
  o_flight_missing : int;
      (** verdicts the engine issued that left no terminal note in the
          rings; only checked on drop-free runs, must be zero *)
  o_faulty : float;
  o_wall_s : float;
  o_rate : float;  (** terminal sessions per wall-clock second *)
}

(** [run ?trace ?metrics ?flight ?engine_cfg cfg] executes the
    campaign.  The engine config defaults to {!Engine.default_config}
    tightened with short (virtual) timeouts.  When [flight] is given
    the engine records into it and the post-run outcome audits the
    dump: it must decode without findings, and (drop-free runs) every
    verdict must have left a terminal note — the refuse-with-evidence
    path depends on exactly this property. *)
val run :
  ?trace:Core.Trace.sink ->
  ?metrics:Core.Metrics.t ->
  ?flight:Core.Flight.t ->
  ?engine_cfg:Engine.config ->
  cfg ->
  outcome

(** [passed ?min_rate o] is [Ok ()] when the robustness invariants held
    (no wrong [Decided], no quarantine escapes, no unterminated
    sessions, no clean anomalies, no flight decode findings or missing
    evidence) and, when [min_rate] is given, the measured rate reached
    it. *)
val passed : ?min_rate:float -> outcome -> (unit, string) result

val to_json : outcome -> string
val pp : Format.formatter -> outcome -> unit
