(** Graph serialization: edge lists, Graphviz DOT, and graph6.

    graph6 is the standard compact ASCII interchange format (McKay's
    nauty): useful for pasting reconstructed topologies into external
    tools, and its encoder/decoder pair doubles as a strong round-trip
    test for the graph structure itself. *)

(** [to_edge_list g] is a line-oriented rendering: first line ["n m"],
    then one ["u v"] line per edge with [u < v]. *)
val to_edge_list : Graph.t -> string

(** [of_edge_list s] parses {!to_edge_list} output.  Fields may be
    separated by spaces, tabs or stray carriage returns; blank lines
    are skipped.
    @raise Invalid_argument on malformed input, including a header edge
    count that differs from the number of edge lines or of distinct
    edges (a repeated edge line).  A bad row, a vertex id out of range
    or a self-loop is reported with a ["Gio.of_edge_list:LINE: "]
    prefix, [LINE] counting from 1 and including blank lines. *)
val of_edge_list : string -> Graph.t

(** [to_dot g] renders an undirected Graphviz graph. *)
val to_dot : ?name:string -> Graph.t -> string

(** [to_graph6 g] encodes in graph6 (supports [n <= 258047]).
    @raise Invalid_argument beyond the supported range. *)
val to_graph6 : Graph.t -> string

(** [of_graph6 s] decodes a graph6 string.
    @raise Invalid_argument on malformed input. *)
val of_graph6 : string -> Graph.t
