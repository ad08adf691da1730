(** Compressed sparse row adjacency.

    The same labelled simple graphs as {!Graph}, stored as two flat
    arrays: [row] (n+1 prefix offsets) and [col] (all neighbour
    identifiers, concatenated in vertex order, each run strictly
    increasing).  Memory is [O(n + m)] words — no [n^2]-bit incidence
    matrix — so million-node sparse graphs fit where {!Graph.t} cannot.

    Construction never builds an adjacency-set intermediate: degrees are
    counted first, offsets are prefix sums, and endpoints are written
    straight into [col] (then each run is sorted and duplicates are
    collapsed, matching {!Graph.of_edges} semantics). *)

type t

(** [of_graph g] converts a materialized graph; [O(n + m)]. *)
val of_graph : Graph.t -> t

(** [of_edges n edges] builds from an edge list.  Duplicate edges (in
    either orientation) collapse.
    @raise Invalid_argument on loops or out-of-range vertices. *)
val of_edges : int -> (int * int) list -> t

val order : t -> int

(** [size t] is the number of edges. *)
val size : t -> int

(** [degree t v]
    @raise Invalid_argument if [v] is out of range. *)
val degree : t -> int -> int

(** [has_edge t u v] by binary search in the smaller run; [O(log deg)].
    @raise Invalid_argument if a vertex is out of range. *)
val has_edge : t -> int -> int -> bool

(** [iter_neighbors t v f] applies [f] in increasing order, allocation
    free. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [neighbors t v] is the increasing neighbour list (allocates; compat
    accessor). *)
val neighbors : t -> int -> int list

(** [neighbors_slice t v] is [(col, off, len)]: the neighbour run of [v]
    inside the shared column array.  Callers must not mutate it. *)
val neighbors_slice : t -> int -> int array * int * int

(** [to_graph t] materializes (allocates the [n^2]-bit incidence
    matrix — small [n] only). *)
val to_graph : t -> Graph.t
