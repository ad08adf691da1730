(** One input-graph interface, three storage disciplines.

    The simulator only ever asks a graph for [n] and per-vertex sorted
    neighbour runs — exactly what a node's {!View} holds — so the engine
    can run against any representation that answers those queries:

    - {b materialized}: the incidence-matrix {!Graph.t} ([n^2] bits;
      the right tool up to a few thousand vertices);
    - {b csr}: flat-array {!Csr.t} ([O(n + m)] words; sparse graphs at
      any order);
    - {b implicit}: an {!Implicit.t} generator ([O(1)] words; the graph
      never exists in memory at all).

    All three backends present each neighbour run in the same strictly
    increasing order, so a protocol's message vector — and hence its
    transcript — is bit-identical across backends for the same labelled
    graph (the equivalence suite in [test_graph_source.ml] enforces
    this).  Engine entry points taking a source record {!backend} in
    their trace/metrics labels as a [\[src=<backend>\]] decoration. *)

type t

val of_graph : Graph.t -> t
val of_csr : Csr.t -> t
val of_implicit : Implicit.t -> t

(** [backend t] is the label token: ["materialized"], ["csr"], or
    ["implicit:<family>"] — shown as the [\[src=...\]] decoration of
    source-run span labels. *)
val backend : t -> string

(** [describe t] is a human-readable spec including parameters. *)
val describe : t -> string

val order : t -> int
val size : t -> int
val degree : t -> int -> int

(** [iter_neighbors t v f] applies [f] in strictly increasing order. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [neighbors t v] is the increasing neighbour list (allocates; compat
    accessor). *)
val neighbors : t -> int -> int list

(** [neighbors_slice t v] is [(arr, off, len)] describing the neighbour
    run of [v].  For materialized and CSR backends the array is shared
    storage — callers must not mutate it; for implicit backends it is a
    fresh [len]-word array.  This is the allocation-lean path the engine
    builds views from. *)
val neighbors_slice : t -> int -> int array * int * int

(** [materialize t] builds the twin {!Graph.t} (allocates the [n^2]-bit
    incidence matrix — small [n] only). *)
val materialize : t -> Graph.t

(** [parse ?graph spec] resolves a CLI [--source] value:
    ["materialized"] and ["csr"] wrap [?graph] (required),
    ["implicit:<family-spec>"] is parsed by {!Implicit.parse} and needs
    no graph.
    @raise Invalid_argument on unknown specs or a missing graph. *)
val parse : ?graph:Graph.t -> string -> t
