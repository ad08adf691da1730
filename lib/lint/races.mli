(** Domain-race detector (deep pass).

    Flags writes to captured (closure-free) mutable state inside
    closures handed to the [Parallel] pool — ref assignment, indexed
    array/bytes writes whose index mentions no closure-bound
    identifier, [Hashtbl]/[Buffer]/[Queue]/[Stack] mutation, recording
    to a captured [Flight] recorder, and record field assignment.  Closures are found both as fun literals at the
    submission site and as same-file identifiers resolved through the
    call graph.  [Atomic] operations and [Policy.race_ok] files are
    exempt; see DESIGN.md §16 for the heuristic's edges. *)

val check : Callgraph.t -> (string * Parsetree.structure) list -> Finding.t list
