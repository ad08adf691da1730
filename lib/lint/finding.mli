(** Lint findings: one invariant violation at one source location.

    Every rule is a named, documented repo invariant (see DESIGN.md §11
    and §16 for the catalogue); findings render either as classic
    [file:line:col: [rule] message] text lines (deep findings append an
    indented call-graph trace) or as a canonical JSON report whose
    schema is frozen by test_lint. *)

type rule =
  | View_boundary
      (** Definition 1: locals read a [View.t] and nothing else;
          [View.make] only in the engine/reduction modules of
          {!Lint.Policy.view_builders}. *)
  | Determinism
      (** transcripts must be bit-identical at any domain-pool width: no
          global PRNG, no wall clock outside Metrics, no raw
          [Domain.spawn] outside Parallel. *)
  | Referee_totality
      (** hardened referees must be total: no [failwith], [assert false]
          or partial stdlib ([List.hd], [List.nth], [Option.get],
          [Array.unsafe_get]) without a justified suppression. *)
  | Bit_accounting
      (** message bytes are constructed via [Message] / [lib/bits] only;
          raw [Bytes] / [Buffer] use is confined to the sanctioned byte
          layers of {!Lint.Policy.bytes_ok}. *)
  | Exn_escape
      (** deep: an exception outside the documented malformed class
          ({!Lint.Exnflow.allowed}) may escape a registered referee's
          [init]/[absorb]/[finish] (or a Bcc [r_*] round function) — the
          hardened combinators would not absorb it, so a hostile input
          could crash the referee instead of degrading the verdict. *)
  | Parallel_race
      (** deep: mutable state captured by a closure handed to the
          [Parallel] pool is written without a provably domain- or
          item-indexed access path, so transcripts may depend on the
          pool width. *)
  | Blocking_call
      (** deep: a blocking [Unix] call is reachable on the call graph
          from the serve daemon's select loop outside the allowlisted
          poll points — a slow client could stall the whole shard. *)
  | Unused_export
      (** deep: an interface exports a value that no other scanned file
          calls (tests and perfbench are not scanned; the values they
          keep alive are listed in {!Lint.Policy.test_oracles}). *)
  | Stale_suppression
      (** deep: a [(* lint: allow <rule> *)] comment whose rule no
          longer fires on that line; dead suppressions hide future
          regressions and must be deleted (or justified with an
          [allow stale-suppression]). *)
  | Parse_error
      (** the file does not parse (or a suppression comment names an
          unknown rule) — reported as a finding, never as a crash. *)

(** [rule_name r] is the kebab-case name used in reports and in
    [(* lint: allow <rule> *)] suppressions. *)
val rule_name : rule -> string

val rule_of_name : string -> rule option

(** One hop of a call-graph witness for a deep finding.  [s_fn] is the
    qualified name of the function the step is in; the last step's
    [s_note] names the defect (the raise site, syscall or mutation). *)
type step = { s_file : string; s_line : int; s_fn : string; s_note : string }

type t = {
  rule : rule;
  file : string;  (** normalized to '/' separators, as scanned *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;
  trace : step list;  (** empty for the per-file (shallow) rules *)
}

(** Total order: file, line, col, rule name, message. *)
val compare : t -> t -> int

(** [to_string f] is ["file:line:col: [rule] message"], followed by one
    indented line per trace step for deep findings. *)
val to_string : t -> string

(** [report_json findings] is the full report document, schema v2:
    [{"findings":[...],"version":2}].  [?wall_ms] and [?files] append
    the lint wall time and scanned-file count when the caller measured
    them (the CLI does; the frozen-schema tests exercise both forms). *)
val report_json : ?wall_ms:int -> ?files:int -> t list -> string
