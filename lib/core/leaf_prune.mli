(** Algorithm 4, written once: the leaf-prune behind the forest referee
    (Section III.A, the [k = 1] case) and the degeneracy referee
    (Theorem 5), clean and sealed.  The prune takes a node of residual
    degree at most [k], decodes its neighbours from its row, records the
    edges and removes the node from their rows, first-in first-out from
    id order.  Beyond the rows, {!run} allocates an [n]-word queue and a
    [k]-word buffer: no incidence matrix, nothing per node. *)

(** One row per node [v]: its residual degree [deg.(v - 1)], which the
    prune consumes, and what pins its neighbours down (an id sum for
    forests, [k] power sums for degeneracy).  [decode v d nbrs] writes
    the [d] neighbours to [nbrs], ascending, or is [false]; [remove u v]
    takes [v] out of [u]'s row. *)
type rows = {
  deg : int array;
  decode : int -> int -> int array -> bool;
  remove : int -> int -> unit;
}

type outcome =
  | Complete  (** every node pruned: the recorded edges are the graph *)
  | Partial of int list Lazy.t  (** stalled; the unpruned ids, ascending *)
  | Inconsistent  (** rows that contradict each other *)

(** [run ~n ~k ~trusted ~edge rows] prunes the [trusted] rows and hands
    each edge to [edge v u], [v] the pruned node.  An untrusted
    neighbour gets the edges trusted rows claim; its row is never read.
    [Inconsistent]: a row that does not decode; a neighbour out of
    range, equal to [v] or not above the one before it (a duplicate
    edge); a trusted neighbour already pruned or at degree 0;
    [Invalid_argument] from [decode] or [remove] (a residual that would
    go negative). *)
val run : n:int -> k:int -> trusted:(int -> bool) -> edge:(int -> int -> unit) -> rows -> outcome

(** [reconstruct ~n ~k rows] is the plain referee: [Some] graph when
    [run] over every row is [Complete]. *)
val reconstruct : n:int -> k:int -> rows -> Refnet_graph.Graph.t option

(** [salvage ~n ~k ~trusted rows report] is the sealed referee: [run]
    over the authenticated rows ([trusted.(v - 1)]), read by
    {!Verdict.salvage} with the unpruned ids undetermined.  A clean
    channel authenticates every row, so its verdict is [Decided] of
    {!reconstruct}'s answer. *)
val salvage :
  n:int ->
  k:int ->
  trusted:bool array ->
  rows ->
  Verdict.fault_report ->
  Refnet_graph.Graph.t option Verdict.t
