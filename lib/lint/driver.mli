(** The linting pipeline: parse (once per file), run {!Rules}, apply
    per-line suppressions, sort — plus the deep, whole-repo pass that
    builds the {!Callgraph} and runs {!Exnflow}, {!Races} and
    {!Blocking} over it.

    Suppression syntax — one rule per comment, reason recommended:
    {[ expr (* lint: allow referee-totality -- slots filled above *) ]}
    The comment suppresses that rule's findings on its own line; a
    comment alone on a line also covers the line below it.  A deep
    finding is also suppressed when a comment covers any step of its
    call-graph trace, so the justification can live at the raise /
    syscall / mutation site the trace points at.  Naming an unknown
    rule is itself a [parse-error] finding, so suppressions cannot rot
    silently; in the deep pass, a comment that matched no finding at
    all is a [stale-suppression] finding. *)

(** [lint_source ~file source] lints one implementation given as a
    string (shallow rules only).  A source that does not parse yields a
    single [parse-error] finding. *)
val lint_source : file:string -> string -> Finding.t list

(** [lint_file path] reads and lints [path]; an unreadable file is a
    [parse-error] finding. *)
val lint_file : string -> Finding.t list

(** [lint_paths paths] is {!lint_file} over every [.ml] file under
    [paths] (recursing into directories, skipping [_build] and
    dot-directories): the scanned files and all findings, sorted. *)
val lint_paths : string list -> string list * Finding.t list

(** Result of a deep run.  [deep_roots_proven] of [deep_roots_total]
    referee roots had their may-raise sets confined to
    {!Exnflow.allowed}; the wall time feeds the [--json] report. *)
type deep = {
  deep_files : string list;
  deep_findings : Finding.t list;
  deep_roots_proven : int;
  deep_roots_total : int;
  deep_wall_ms : int;
}

(** [deep_sources sources] runs shallow rules plus the call-graph
    passes over [(file, source)] pairs given in memory (the test
    harness uses this to place fixtures at policy-relevant paths).
    [.mli] entries are interfaces for the {!Exports} pass, which judges
    them against [oracles] (default {!Policy.test_oracles}). *)
val deep_sources : ?oracles:(string * string) list -> (string * string) list -> deep

(** The paths a lint run covers by default, relative to the working
    directory: [lib bin bench examples]. *)
val program_roots : string list

(** [deep_paths paths] judges [paths] against the whole program: the
    [.ml] files {!lint_paths} would scan under {!program_roots} and
    [paths], each with its sibling [.mli], read, then {!deep_sources}.
    Only findings located under [paths] are reported; the referee-root
    counts are the whole program's. *)
val deep_paths : string list -> deep
