(** A randomized one-round connectivity protocol — the paper's main open
    question, answered in the public-coin model by graph sketching
    (Ahn–Guha–McGregor 2012, which appeared the year after the paper).

    The paper conjectures no deterministic frugal ([O(log n)] bits/node)
    one-round protocol decides connectivity.  With {e shared randomness}
    and [O(log^3 n)] bits per node, one round suffices:

    - every node sketches its signed edge-incidence vector (edge
      [{u,v}] at coordinate [idx(u,v)], sign [+1] at the smaller
      endpoint, [-1] at the larger) with [O(log n)] independent
      ℓ₀-samplers derived from the public seed;
    - sketches are linear, so the referee can sum a whole component's
      samplers: internal edges cancel and sampling yields an {e
      outgoing} edge;
    - the referee runs Borůvka: each phase consumes one fresh sampler
      per node, samples an outgoing edge per component and merges.

    Errors are one-sided: a disconnected graph is {e never} declared
    connected by a sound merge (components have zero crossing support,
    and fingerprint checks make spurious recoveries vanishing), while a
    connected graph may be declared disconnected if sampling fails;
    increasing [rounds] drives the failure probability down.

    This does not contradict the paper: the conjecture concerns
    deterministic protocols with [O(log n)]-bit messages; this uses
    randomness and [O(log^3 n)] bits.  It sharpens where the open
    question really lives. *)

(** [protocol ~seed ?rounds ?levels ()] — both parameters default to
    values derived from [n] at run time ([ceil(log2 n) + 2] Borůvka
    phases, [2 ceil(log2 n) + 2] sampler levels). *)
val protocol : seed:int -> ?rounds:int -> ?levels:int -> unit -> bool Protocol.t

(** [templates ~seed ~rounds ~levels] are the samplers every node
    derives from the public seed, one per Borůvka phase: the hash and
    fingerprint point of each round's column of a bank.  A bank is the
    [rounds] samplers' fields ({!Refnet_sketch.L0_sampler.write} order),
    [31] bits each, round 0 first. *)
val templates :
  seed:int -> rounds:int -> levels:int -> Refnet_sketch.L0_sampler.t array

(** [message_bits ~n ?rounds ?levels ()] — exact serialized size. *)
val message_bits : n:int -> ?rounds:int -> ?levels:int -> unit -> int

(** [hardened ~seed ?rounds ?levels ()] — the crash/corruption-tolerant
    variant: sampler banks are {!Message.seal}ed and authenticated
    before parsing.  Sketch sums need every node of a component for
    internal edges to cancel, so no sound partial verdict exists: a
    clean channel gives [Decided] of the plain answer, {e any} detected
    fault gives [Inconclusive]. *)
val hardened : seed:int -> ?rounds:int -> ?levels:int -> unit -> bool Verdict.t Protocol.t

(** [edge_index ~u ~v] is the coordinate of edge [{u,v}] ([u <> v]) in
    the incidence vector: [C(max-1, 2) + min - 1]. *)
val edge_index : u:int -> v:int -> int

(** [edge_of_index idx] inverts {!edge_index}, returning [(u, v)] with
    [u < v]. *)
val edge_of_index : int -> int * int
