(** Exception-escape totality prover (deep pass).

    A monotone worklist fixpoint over the call graph computes each
    definition's may-raise set (raise sites minus enclosing handlers,
    plus callee sets minus call-site handlers; [raise e] on a variable
    is the wildcard key ["?"], removed only by a catch-all).  Every
    referee root must then be confined to the documented malformed
    class, or an [Exn_escape] finding is emitted with the witness call
    chain.

    Known approximations (DESIGN.md §16): unresolved callees raise
    nothing except for a small modeled-primitive table ([List.hd],
    [Queue.pop], ...); implicit failures (array bounds,
    [Division_by_zero]) are not modeled; guarded handlers absorb
    nothing. *)

(** The documented malformed class — exactly what [Protocol.guard]
    absorbs, the step under [Protocol.sealed], [Protocol.harden] and
    [Bcc.harden]: [Malformed], [Exhausted], [Invalid_argument],
    [Failure]. *)
val allowed : string list

(** [check g] is [(findings, roots_proven, roots_total)] over the
    resolved referee roots of [g]. *)
val check : Callgraph.t -> Finding.t list * int * int
