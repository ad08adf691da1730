(** A zero-dependency metrics registry: counters, gauges, log₂-bucketed
    histograms and wall-clock timers, with snapshot export in JSON and
    Prometheus text format.

    The paper's claims are quantitative — Theorem 5's protocol must fit
    in O(k²·log n) bits per node, the coalition protocol in O(k·log n) —
    so the engine surfaces exact bit and time accounting as first-class
    telemetry instead of burying it in per-run transcripts.  Every
    engine entry point ({!Simulator}, {!Coalition}, {!Bcc},
    {!Parallel}) takes an optional registry; when absent the
    instrumented branches are never entered, so an unobserved run pays
    nothing (the [bench/main.exe metrics] microbench asserts this).

    {b Clock.} [create ?clock] takes the time source; the default is
    [Unix.gettimeofday].  Tests that need bit-identical snapshots across
    {!Parallel} widths pass [~clock:(fun () -> 0.)] — every duration
    collapses to zero and the remaining contents (counters, histograms)
    are deterministic by the engine's determinism contract.  The clock
    is called from worker domains during parallel sections, so a custom
    clock must be safe to call from any domain.

    {b Sampling.} Per-absorb latency is expensive to clock one message
    at a time, so the engine observes every 64th absorb of an
    unchunked one-round run (see {!Simulator.uplink}); all other instrumentation is exact.

    {b Thread-safety.} The registry itself is {e not} thread-safe:
    metrics are recorded from the submitting domain only, after each
    parallel section completes — the same discipline as {!Trace}
    sinks.  ({!Parallel} accumulates per-domain busy time in batch-local
    arrays and folds them into the registry after the join.) *)

type t
(** A registry.  Metrics are created on first use by name; asking for
    the same name twice returns the same metric, and asking for a name
    already registered as a different kind raises [Invalid_argument]. *)

val create : ?clock:(unit -> float) -> unit -> t

(** [now t] reads the registry's clock (seconds). *)
val now : t -> float

(** [series base labels] formats a Prometheus-style series name,
    [base{k="v",...}] — label values are escaped.  The exporters split
    the name back at the first ['{'], so labelled series render as
    proper Prometheus label sets. *)
val series : string -> (string * string) list -> string

module Counter : sig
  type counter

  (** [counter t name] finds or creates the named counter. *)
  val counter : t -> string -> counter

  val incr : counter -> unit

  (** [add c k] adds [k].  Counters are monotone: [k < 0] raises
      [Invalid_argument], and additions {e saturate} at [max_int]
      instead of wrapping to a negative value. *)
  val add : counter -> int -> unit

  val value : counter -> int
end

module Gauge : sig
  type gauge

  val gauge : t -> string -> gauge
  val set : gauge -> float -> unit
  val value : gauge -> float
end

module Histogram : sig
  type histogram

  (** Buckets are base-2 logarithmic: bucket 0 holds the value 0 and
      bucket [i >= 1] holds values in [[2^(i-1), 2^i - 1]] — boundaries
      at exact powers of two, so a frugal protocol's message sizes land
      in a handful of adjacent buckets and a super-budget message is a
      visible outlier. *)

  val histogram : t -> string -> histogram

  (** [observe h v] records the (non-negative) value [v].
      @raise Invalid_argument if [v < 0]. *)
  val observe : histogram -> int -> unit

  (** [bucket_index v] is the bucket [observe] files [v] under:
      [0 -> 0], [v -> ceil(log2 (v + 1))] otherwise. *)
  val bucket_index : int -> int

  (** [bucket_range i] is the inclusive [(lo, hi)] range of bucket [i]:
      [(0, 0)] for bucket 0, [(2^(i-1), 2^i - 1)] for [i >= 1]. *)
  val bucket_range : int -> int * int

  val count : histogram -> int

  (** [sum h] — saturating, like {!Counter.add}. *)
  val sum : histogram -> int

  val max_value : histogram -> int

  (** [buckets h] is the non-empty buckets as [(index, count)] pairs in
      increasing index order. *)
  val buckets : histogram -> (int * int) list

  (** [quantile h q] is the value at quantile [q] (clamped to [0..1]):
      the upper bound of the first bucket whose cumulative count reaches
      [ceil(q·count)], clamped to {!max_value} — exact at the log₂
      resolution the buckets keep.  [0] on an empty histogram. *)
  val quantile : histogram -> float -> int
end

module Timer : sig
  type timer

  val timer : t -> string -> timer

  (** [add tm ?domain seconds] folds [seconds] of busy time into the
      timer, attributed to domain slot [domain] (default 0; clamped to
      the 64-slot attribution table).  Negative durations (a
      non-monotonic clock stepping backwards) are clamped to zero.
      [add] does not bump the span count — it is the accumulation
      primitive {!Parallel} uses for per-domain attribution. *)
  val add : timer -> ?domain:int -> float -> unit

  val count : timer -> int
  val total : timer -> float

  (** [by_domain tm] is the per-domain totals as [(slot, seconds)]
      pairs, non-zero entries only, increasing slot order. *)
  val by_domain : timer -> (int * float) list
end

(** [time t name f] runs [f ()] inside a span: on return (or raise) the
    elapsed wall time is added to timer [name] and its span count is
    bumped. *)
val time : t -> string -> (unit -> 'a) -> 'a

type span

(** [start_span t name] opens a span by hand; {!stop_span} closes it
    (attributing to [?domain], like {!Timer.add}) and bumps the span
    count.  For the common case prefer {!time}. *)
val start_span : t -> string -> span

val stop_span : t -> ?domain:int -> span -> unit

(** {1 Snapshots} *)

type histogram_snapshot = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;  (** non-empty buckets, increasing index *)
}

type timer_snapshot = {
  t_count : int;
  t_total : float;
  t_by_domain : (int * float) list;  (** non-zero slots, increasing *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
  timers : (string * timer_snapshot) list;
}
(** All four sections are sorted by metric name, so a snapshot of a
    deterministic run renders to a byte-identical export. *)

val snapshot : t -> snapshot

(** {!Histogram.quantile} over an already-taken snapshot. *)
val snapshot_quantile : histogram_snapshot -> float -> int

(** [to_json s] is a single canonical JSON object (sorted keys, no
    whitespace) — the machine-readable export.  Histogram objects carry
    [p50]/[p90]/[p99] fields alongside count/sum/max. *)
val to_json : snapshot -> string

(** [to_prometheus s] is the Prometheus text exposition format:
    [# TYPE] headers, cumulative [_bucket{le="..."}] lines for
    histograms (log₂ upper bounds), [_sum]/[_count] plus
    summary-convention [{quantile="0.5|0.9|0.99"}] lines, and timers as
    [_seconds_total] / [_spans_total] series with per-domain
    [{domain="i"}] breakdowns. *)
val to_prometheus : snapshot -> string

val pp_snapshot : Format.formatter -> snapshot -> unit
