(** The repo's lint policy: which modules are allowed to cross which
    boundary, with the reason recorded next to each entry (see
    policy.ml).  There is deliberately no external config file — the
    allowlists are code, reviewed like code, and a new module is covered
    by every rule until someone adds it here or writes a per-line
    [(* lint: allow <rule> — reason *)] suppression.

    Entries are path suffixes ("lib/core/metrics.ml") or directory
    scopes ("lib/bits/"), matched against '/'-normalized paths, so the
    linter works from the repo root or any parent directory. *)

(** [matches path entries] — [path] ends with one of the file entries
    (on a component boundary) or passes through one of the directory
    entries. *)
val matches : string -> string list -> bool

(** Modules allowed to call [View.make] — the execution engine and the
    referee-side oracle simulations listed in view.mli. *)
val view_builders : string list

(** Modules allowed to read the wall clock ([Unix.gettimeofday],
    [Sys.time], ...). *)
val clock_ok : string list

(** Modules allowed to issue [Unix] socket / file-descriptor syscalls
    ([Unix.socket], [Unix.select], ...) — the serve transport only. *)
val unix_ok : string list

(** Modules allowed to call [Domain.spawn]. *)
val spawn_ok : string list

(** Modules exempt from the referee-totality rule as a whole. *)
val totality_exempt : string list

(** The sanctioned byte layers: modules allowed to touch raw [Bytes] /
    [Buffer]. *)
val bytes_ok : string list

(** Roots of the blocking-call reachability pass, as
    [(file-suffix, top-level function)] pairs — the serve daemon's
    select loop. *)
val blocking_roots : (string * string) list

(** Allowlisted poll points for descriptor I/O syscalls reachable from a
    blocking root, as [(file-suffix, function)] pairs; a nested
    definition matches if any component of its path equals the listed
    function name. *)
val poll_points : (string * string) list

(** Modules exempt from the parallel-race pass (the domain pool
    itself). *)
val race_ok : string list

(** Exports kept alive by callers the deep pass does not scan (tests
    and perfbench), as [(module, value-path)] pairs such as
    [("Vandermonde", "apply")] or [("Metrics", "Histogram.count")]. *)
val test_oracles : (string * string) list
