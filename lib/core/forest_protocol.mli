(** The Section III.A protocol: one-round reconstruction of forests.

    Each node sends the triple (identifier, degree, sum of neighbour
    identifiers) — under [4 log n] bits.  The referee repeatedly prunes a
    leaf: a degree-1 triple pins its unique neighbour (the sum {e is} the
    neighbour), and the neighbour's triple is patched as if the leaf had
    never existed.  If pruning stalls before the graph is exhausted, the
    input contained a cycle.  This is the [k = 1] case of
    {!Degeneracy_protocol}: the same bits (the sum is [b_1]) and the same
    {!Leaf_prune}, over int rows whose decoder is the sum itself. *)

(** [reconstruct] outputs [Some g] when the input is a forest, [None]
    when it contains a cycle (or messages are inconsistent). *)
val reconstruct : Refnet_graph.Graph.t option Protocol.t

(** [recognize] decides "is the input a forest?" with the same
    messages. *)
val recognize : bool Protocol.t

(** [message_bits n] is the exact fixed-width message length used at
    size [n] (= {!Bounds.forest_message_bits}). *)
val message_bits : int -> int

(** [hardened] is the crash/corruption-tolerant variant: each node
    {!Message.seal}s its triple and the referee is
    {!Leaf_prune.salvage} over the authenticated rows.  Under crash-only
    plans the degraded graph is {e exactly} the input edges incident to
    a resolved node.  Never a wrong [Decided]: corruption is either
    detected by the seal (up to the [2^-32] digest collision rate) or
    surfaces as missing rows. *)
val hardened : Refnet_graph.Graph.t option Verdict.t Protocol.t
