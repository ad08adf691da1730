(** Blocking-call reachability (deep pass).

    BFS from {!Policy.blocking_roots} over the resolved call graph;
    flags always-blocking [Unix] calls (tier A: sleeps, [connect], DNS,
    waits) wherever reachable, and descriptor I/O (tier B: [read],
    [write], [accept], ...) outside {!Policy.poll_points}.
    [Unix.select] is the scheduler and never flagged.  Findings carry
    the call chain from the root. *)

val check : Callgraph.t -> Finding.t list
