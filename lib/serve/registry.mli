(** The protocols a serve session may name, behind one existential.

    Every entry is a {e hardened} protocol — its referee returns a
    {!Core.Verdict.t}, so a session fed by a crashing, stalling or
    corrupting client still finishes into a sound
    [Degraded]/[Inconclusive] instead of raising.  [render] maps the
    verdict payload to the canonical string carried in the wire
    [Verdict] frame; renderings are deterministic, so the selftest can
    check a [Decided] payload against ground truth by string equality. *)

type entry =
  | Entry : {
      protocol : 'a Core.Verdict.t Core.Protocol.t;
      render : 'a -> string;
    }
      -> entry

(** Specs accepted by {!lookup}:
    - ["count"] — a minimal sealed degree-census protocol (load-generator
      fodder: tiny messages, O(1) referee state)
    - ["forest"] — {!Core.Forest_protocol.hardened}
    - ["degeneracy:<k>"] — {!Core.Degeneracy_protocol.hardened}
    - ["bounded:<d>"] — {!Core.Bounded_degree.hardened}
    - ["sketch:<seed>"] — {!Core.Sketch_connectivity.hardened}

    Each spec carries a hard cap on [n] (the degeneracy referee holds
    O(n^2) bits, graph renderings must fit a wire string field, ...);
    [lookup] rejects a session above the cap. *)
val lookup : spec:string -> n:int -> (entry, string) result

(** [max_n spec] is the session-size cap the spec would be admitted
    under, if the spec is well-formed. *)
val max_n : string -> int option

(** [render_graph g] is the canonical graph rendering used by the
    reconstruction entries: exact graph6 for small orders, an
    order/size/FNV-fingerprint summary above that (wire strings are
    capped at 64 KiB).  Exposed so tests and the selftest compute
    expected payloads with the same function. *)
val render_graph : Refnet_graph.Graph.t -> string
