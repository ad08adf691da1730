(** The auxiliary graphs [G'_{s,t}] of the impossibility proofs
    (Section II).  Each construction turns "is [{s,t}] an edge of [G]?"
    into an instance of the target decision problem.

    All three take a base graph [G] on [1..n] and a vertex pair
    [s <> t]; extra vertices are appended after [n]. *)

open Refnet_graph

(** [square g s t] (Theorem 1) has [2n] vertices: [G], a pendant
    [i -- n+i] for every [i], and the edge [n+s -- n+t].  When [G] is
    square-free, [G'] contains a 4-cycle iff [{s,t}] is an edge of [G].
    @raise Invalid_argument if [s = t] or out of range. *)
val square : Graph.t -> int -> int -> Graph.t

(** [diameter g s t] (Theorem 2, Figure 1) has [n + 3] vertices: [G] plus
    [s -- n+1], [t -- n+2], and a universal [n+3] adjacent to [1..n].
    [G'] has diameter at most 3 iff [{s,t}] is an edge of [G]. *)
val diameter : Graph.t -> int -> int -> Graph.t

(** [triangle g s t] (Theorem 3, Figure 2) has [n + 1] vertices: [G] plus
    [n+1] adjacent to [s] and [t].  When [G] is triangle-free, [G']
    contains a triangle iff [{s,t}] is an edge of [G]. *)
val triangle : Graph.t -> int -> int -> Graph.t

(** Predicted neighbourhoods of the {e fictitious} vertices — what the
    referee computes locally when simulating an oracle on [G'_{s,t}]
    without seeing [G] (they depend only on [n], [s], [t]). *)

(** [square_fictitious ~n ~s ~t j] is the neighbour set of vertex
    [j in n+1..2n] inside [square g s t]. *)
val square_fictitious : n:int -> s:int -> t:int -> int -> int list

(** [diameter_fictitious ~n ~s ~t j] for [j in n+1..n+3]. *)
val diameter_fictitious : n:int -> s:int -> t:int -> int -> int list

(** [triangle_fictitious ~n ~s ~t j] for [j = n+1]. *)
val triangle_fictitious : n:int -> s:int -> t:int -> int -> int list
