(** The partition (coalition) variant of the model.

    The paper's hardness proofs and its connectivity discussion both use
    the following strengthening: the vertices are split into parts, and
    the vertices of a part may pool their local information before each
    sends its own [O(log n)]-bit message.  Formally a coalition protocol's
    local function sees a whole part — every member's identifier and
    neighbour list — and emits one message {e per member}; the referee
    still receives [n] individual messages.

    The conclusion's observation "if a graph is split into [k] parts ...
    there is an algorithm for connectivity using [O(k log n)] bits per
    node" lives in this model; {!Connectivity_parts} implements it. *)

type view = { members : int list; neighborhoods : (int * int list) list }
(** What a part jointly knows: its member identifiers and each member's
    neighbour set (in increasing member order). *)

type 'a t = {
  name : string;
  local : n:int -> view -> (int * Message.t) list;
      (** Messages for the part's members, tagged by member id; must
          cover exactly the part's members. *)
  referee : 'a Protocol.referee;
      (** The referee still receives [n] individual messages, streamed
          per the run's delivery schedule; {!Protocol.batch} keeps the
          array-style spelling available. *)
  budget : parts:int -> Bound_audit.budget option;
      (** the theorem budget of a run over [parts] coalitions, carried
          on its [Referee_done] events ([None]: nothing to audit) *)
}

(** [partition_by_ranges ~n ~parts] splits [1..n] into [parts] contiguous
    ranges of near-equal size.
    @raise Invalid_argument if [parts < 1] or [parts > n]. *)
val partition_by_ranges : n:int -> parts:int -> int list list

(** [collect p src ~parts] is the pooled local phase: each part's
    local function over its members' joint view, gathered into the
    full message vector (node [i]'s message at index [i - 1]).
    @raise Invalid_argument as {!run} does. *)
val collect : 'a t -> Refnet_graph.Graph_source.t -> parts:int list list -> Message.t array

(** [run ?delivery ?trace ?metrics p g ~parts] executes a coalition
    protocol over the given partition of the vertices; the pooled local
    phase produces the whole message vector, which reaches the referee
    per [delivery] (default [In_order]; see {!Simulator.delivery} — a
    [Faulty] plan hits per-member messages after they are computed
    honestly, and an empty plan is bit-identical to [In_order]).  With
    a live [trace], span, absorb and done events are emitted as in
    {!Simulator.run} — the span label reads ["name[parts=k]"] and the
    done event carries [p.budget ~parts:k], so the O(k·log n) coalition
    bound is auditable from the trace alone.  [?metrics] records the
    same series as {!Simulator.run} (minus [refnet_view_queries] —
    coalition views are pooled, not per-node audited).
    @raise Invalid_argument if [parts] does not partition [1..n] or the
    local function mislabels a message. *)
val run :
  ?delivery:Simulator.delivery ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a t ->
  Refnet_graph.Graph.t ->
  parts:int list list ->
  'a * Simulator.transcript

(** [run_source p src ~parts] is {!run} over any {!Graph_source}
    backend.  The label gains the outermost [\[src=<backend>\]]
    decoration (["name[parts=k][src=csr]"]) — backend-tagged coalition
    runs carry the same O(k·log n) budget — and counter
    [refnet_source_runs_total\{backend="..."\}] is bumped when metrics
    are on. *)
val run_source :
  ?delivery:Simulator.delivery ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a t ->
  Refnet_graph.Graph_source.t ->
  parts:int list list ->
  'a * Simulator.transcript
