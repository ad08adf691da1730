(** Labelled simple undirected graphs.

    Vertices are identified by integers [1..n], matching the paper's model
    where every node of an [n]-node network carries a unique identifier in
    [{1, ..., n}] ("graph" always means "labelled graph").  Graphs are
    immutable once built; use {!Builder} or {!of_edges} to construct
    them.  Self-loops and parallel edges are rejected. *)

open Refnet_bits

type t

(** Mutable construction buffer. *)
module Builder : sig
  type graph := t
  type t

  (** [create n] starts an empty graph on vertices [1..n].
      @raise Invalid_argument if [n < 0]. *)
  val create : int -> t

  (** [add_edge b u v] inserts the edge [{u, v}].  Inserting an existing
      edge is a no-op.
      @raise Invalid_argument if [u = v] or a vertex is out of range. *)
  val add_edge : t -> int -> int -> unit

  (** [has_edge b u v] tests membership during construction. *)
  val has_edge : t -> int -> int -> bool

  (** [build b] freezes the buffer.  The builder may keep being used;
      later edges do not affect already-built graphs. *)
  val build : t -> graph
end

(** [empty n] is the edgeless graph on [1..n]. *)
val empty : int -> t

(** [of_edges n edges] builds a graph from an edge list.  Duplicate edges
    (in either orientation) are allowed and collapse.
    @raise Invalid_argument on loops or out-of-range vertices. *)
val of_edges : int -> (int * int) list -> t

(** [order g] is the number [n] of vertices. *)
val order : t -> int

(** [size g] is the number of edges. *)
val size : t -> int

(** [has_edge g u v] is edge membership.
    @raise Invalid_argument if a vertex is out of range. *)
val has_edge : t -> int -> int -> bool

(** [degree g v] is the number of neighbours of [v]. *)
val degree : t -> int -> int

(** [neighbors g v] is the increasing list of neighbours of [v] — exactly
    the local knowledge [{ID(y) | y in N(v)}] a node holds in the model. *)
val neighbors : t -> int -> int list

(** [neighbors_row g v] is the precomputed increasing neighbour array of
    [v], shared with the graph — callers must not mutate it.  This is
    the zero-copy slice {!Graph_source} hands the engine's view
    builder. *)
val neighbors_row : t -> int -> int array

(** [iter_neighbors g v f] applies [f] to each neighbour of [v] in
    increasing order, iterating the precomputed adjacency array directly —
    no list is allocated.  Preferred over {!neighbors} on hot paths. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [fold_neighbors g v init f] folds [f] over the neighbours of [v] in
    increasing order, without allocating. *)
val fold_neighbors : t -> int -> 'a -> ('a -> int -> 'a) -> 'a

(** [neighborhood g v] is the incidence vector of [N(v)]: bit [i - 1] set
    iff [i] is a neighbour.  The returned vector is shared; callers must
    not mutate it. *)
val neighborhood : t -> int -> Bitvec.t

(** [vertices g] is [[1; ...; n]]. *)
val vertices : t -> int list

(** [edges g] lists each edge once as [(u, v)] with [u < v], in
    lexicographic order. *)
val edges : t -> (int * int) list

(** [iter_edges g f] applies [f u v] to each edge with [u < v]. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** [fold_vertices g init f] folds over [1..n]. *)
val fold_vertices : t -> 'a -> ('a -> int -> 'a) -> 'a

(** [max_degree g] is [0] on the empty graph. *)
val max_degree : t -> int

val min_degree : t -> int

(** [degree_sequence g] is the non-increasing degree sequence. *)
val degree_sequence : t -> int list

(** [equal g h] is equality as labelled graphs: same order, same edge
    set. *)
val equal : t -> t -> bool

(** [complement g] has edge [{u,v}] iff [g] does not. *)
val complement : t -> t

(** [induced g vs] is the subgraph induced by the vertex list [vs],
    relabelled to [1..|vs|] in the order given, together with the map
    from new labels to old ones.
    @raise Invalid_argument on repeats or out-of-range vertices. *)
val induced : t -> int list -> t * int array

(** [remove_vertex g v] deletes [v] and its edges, keeping remaining
    labels unchanged but compacting them down by one above [v]
    (the paper's [G \ r] pruning).  Returned map sends new to old. *)
val remove_vertex : t -> int -> t * int array

(** [relabel g perm] renames vertex [v] to [perm.(v - 1)].
    @raise Invalid_argument if [perm] is not a permutation of [1..n]. *)
val relabel : t -> int array -> t

(** [disjoint_union g h] places [h] after [g], shifting [h]'s labels by
    [order g]. *)
val disjoint_union : t -> t -> t

(** [add_vertices g m] appends [m] isolated vertices labelled
    [n+1 .. n+m]. *)
val add_vertices : t -> int -> t

(** [add_edges g edges] is [g] plus the listed edges. *)
val add_edges : t -> (int * int) list -> t

(** [is_subgraph g h] is true when [g] and [h] have the same order and
    every edge of [g] is an edge of [h]. *)
val is_subgraph : t -> t -> bool

val pp : Format.formatter -> t -> unit
