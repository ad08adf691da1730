(** The [unused-export] pass: each [val] of a scanned interface (top
    level or in a nested [module M : sig ... end]) that no definition
    of another scanned file calls, per {!Callgraph}'s resolved call
    sites.  [oracles] lists [(module, value)] pairs that
    unscanned callers — tests and perfbench — keep alive; an entry
    naming no scanned export is itself a finding.  Values without a
    def of their own (aliases, [include], functor results) are not
    judged; see DESIGN.md §16. *)
val check :
  oracles:(string * string) list ->
  Callgraph.t ->
  (string * Parsetree.signature) list ->
  Finding.t list
