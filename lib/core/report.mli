(** Offline trace analysis: aggregate a JSONL trace (or a live event
    stream) into per-protocol bit histograms, fault counts and
    bound-audit verdicts.

    The aggregator consumes {!Trace} events one at a time.  The offline
    path reads the JSONL lines {!Trace.jsonl} wrote with
    {!Refnet_json.Json.parse}, the one JSON reader of the repo; the live
    path ({!ingest_event}) renders each event through
    {!Trace.json_of_event} and feeds the same line reader — the two
    paths are the same code by construction, which is what makes
    [refnet report] reproduce a live run's aggregates byte-for-byte
    (tested in [test_metrics]).

    Events between a [Span_begin]/[Span_end] pair are attributed to the
    innermost open span's label; [Referee_done] events carry their own
    label and the budget the run is audited under, and contribute one
    bound-audit observation [(n, max_bits)] each.  Message-bit histograms bucket with
    {!Metrics.Histogram.bucket_index} (log₂ buckets), so the report and
    a live {!Metrics} snapshot bucket identically. *)

type t

val create : unit -> t

(** [ingest_line t line] parses and aggregates one JSONL trace line
    (empty/whitespace lines are ignored).
    @raise Failure on a line that does not parse as a trace event —
    including a [done] line without a ["budget"] field (a trace written
    before budgets were typed) and a [done] line whose budget differs
    from an earlier one under the same label. *)
val ingest_line : t -> string -> unit

(** [ingest_event t ev] aggregates a live event — defined as
    [ingest_line t (Trace.json_of_event ev)]. *)
val ingest_event : t -> Trace.event -> unit

(** [sink t] wraps {!ingest_event} as a {!Trace.sink}, so a live run can
    aggregate directly: [Simulator.run ~trace:(Report.sink t) ...]. *)
val sink : t -> Trace.sink

(** [ingest_file t path] ingests a whole JSONL trace file.
    @raise Failure as [ingest_line], prefixed with [path:lineno];
    @raise Sys_error if the file cannot be read. *)
val ingest_file : t -> string -> unit

(** [events t] is the number of events aggregated so far. *)
val events : t -> int

(** [verdicts t] audits every label whose done events carry a budget,
    sorted by label. *)
val verdicts : t -> Bound_audit.verdict list

(** [violations t] is the failed subset of {!verdicts}. *)
val violations : t -> Bound_audit.verdict list

(** [to_json t] is one canonical JSON object (sorted keys, no
    whitespace): [{"audits":[...],"protocols":{...},"trace_events":N}].
    Two aggregators fed the same events render identical strings. *)
val to_json : t -> string

(** [pp fmt t] renders the human report: per-protocol aggregates with
    log₂ bit histograms and fault counts, then the audit table. *)
val pp : Format.formatter -> t -> unit
