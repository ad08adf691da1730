(** The reduction protocols Δ of Section II, executable.

    Each takes an {e oracle}: any one-round protocol Γ deciding the
    target property (squares / diameter ≤ 3 / triangles) at every network
    size.  From it, Δ reconstructs the input graph in one round by
    simulating Γ on the gadgets [G'_{s,t}] of {!Gadgets} for every vertex
    pair — real nodes send Γ-messages computed on their gadget
    neighbourhoods, and the referee fabricates the fictitious vertices'
    messages itself (they do not depend on [G]).

    Running Δ with a {e correct} oracle demonstrates the simulation is
    faithful (tests check exact reconstruction); measuring Δ's message
    sizes demonstrates the accounting of the theorems — [k(2n)] /
    [3 k(n+3)] / [2 k(n+1)] bits for an oracle using [k(n)] bits — which
    combined with Lemma 1's counting (see {!Counting}) yields the
    impossibility of a frugal Γ. *)

open Refnet_graph

(** Each constructor takes [?metrics]: the returned protocol's referee
    captures the registry and records one [refnet_oracle_probes_total]
    increment per simulated gadget pair during its O(n²) probe sweep
    (plus the {!Parallel} pool timers).  Omitted, the referee runs the
    uninstrumented path. *)

(** [square ?metrics oracle] (Theorem 1 / Algorithm 1): reconstructs
    square-free graphs.  Messages are single Γ-messages at size [2n]. *)
val square : ?metrics:Metrics.t -> bool Protocol.t -> Graph.t Protocol.t

(** [diameter ?metrics oracle] (Theorem 2 / Algorithm 2): reconstructs
    arbitrary graphs from a diameter-3 decider.  Messages bundle the
    three Γ-messages [(m0, ms, mt)], length-prefixed. *)
val diameter : ?metrics:Metrics.t -> bool Protocol.t -> Graph.t Protocol.t

(** [triangle ?metrics oracle] (Theorem 3): reconstructs triangle-free
    (in the paper, bipartite) graphs from a triangle decider.  Messages
    bundle two Γ-messages. *)
val triangle : ?metrics:Metrics.t -> bool Protocol.t -> Graph.t Protocol.t

(** Reference oracles, correct by construction but deliberately
    non-frugal ([n] bits per node): each node ships its incidence vector
    and the referee decides exactly.  These close the loop in tests: a
    correct oracle exists, the reductions work, and only frugality is
    impossible. *)

val square_oracle : bool Protocol.t
val diameter3_oracle : bool Protocol.t
val triangle_oracle : bool Protocol.t
