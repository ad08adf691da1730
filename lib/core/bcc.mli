(** Broadcast congested clique (BCC) engine — the paper's closing
    question ("investigate properties that can(not) be decided by a
    frugal protocol with fixed number of rounds") as a
    bandwidth-parameterized executable model.

    The model extends Definition 1 round-wise: in each of a fixed
    number of rounds every node sends one message to the referee, then
    the referee broadcasts one reply heard by all nodes (the referee is
    a universal vertex, so a broadcast is one message per incident edge
    with identical content).  Nodes carry state between rounds.  The
    {!budget} makes the bandwidth explicit: no node message — and no
    referee broadcast — may exceed [bits_per_round n] bits, enforced at
    send time ({!Budget_exceeded}), so a protocol's rounds-vs-bits
    claim is checked on every run rather than asserted in a comment.

    The engine is re-based on the full execution stack.  Each round,
    every node's {!View.t} is rebuilt from a {!Graph_source} backend
    (materialized / CSR / implicit), and its [init] (round 1) or
    [receive] (later rounds), then its [send], run on the {!Parallel}
    domain pool; between rounds a node is one stash pointer.  The
    referee absorbs through a streaming per-round {!round_stream}
    (constant live messages under [?chunk]), and every round emits
    {!Trace} spans and {!Metrics}.  Per-round
    spans are labelled [name[round=r]], and each round's done event
    carries the protocol's {!t.audit} budget, so each round's bits
    audit against the per-round theorem in [refnet report].

    Transcripts are bit-identical at every domain count, chunk size and
    {!Graph_source} backend presenting the same labelled graph. *)

open Refnet_graph

(** The explicit bandwidth contract: [rounds] node->referee phases,
    each message at most [bits_per_round n] bits (the broadcast is held
    to the same cap). *)
type budget = { rounds : int; bits_per_round : int -> int }

(** [budget ~rounds ~bits_per_round] — the checked constructor.
    Prefer it over a record literal: a nonsensical contract is rejected
    here, at construction, rather than surfacing later.
    @raise Invalid_argument if [rounds < 1], naming the field.  The cap
    function can only be validated once [n] is known; {!run} and
    {!run_source} reject [bits_per_round n < 1] at entry, before any
    message is produced. *)
val budget : rounds:int -> bits_per_round:(int -> int) -> budget

(** [unbounded] — no per-round cap ([fun _ -> max_int]); for lifted
    one-round protocols and adaptive protocols whose message sizes are
    data-dependent. *)
val unbounded : int -> int

(** [log_budget ~c] is [fun n -> c * Bounds.id_bits n] — the
    O(log n)-bits-per-round regime at constant [c].
    @raise Invalid_argument if [c < 1]. *)
val log_budget : c:int -> int -> int

(** Raised at send time when a message breaks the budget.  [id] is the
    offending node, or [0] when the referee's broadcast itself is over
    the cap. *)
exception Budget_exceeded of { round : int; id : int; bits : int; limit : int }

type node_state
(** Opaque per-node state: the node's {!View.t} plus a message stash.
    Only the stash persists between rounds.  The engine builds a fresh
    view for every round, straight from the backend's neighbour slice
    (no [int list] copy), and wraps it with the stash before the node's
    [receive] and [send].  A stash that is exactly the broadcasts so
    far, most recent first, is stored once for all nodes. *)

val make_state : View.t -> node_state
(** [make_state view] is the fresh state around an engine-built view
    with an empty stash. *)

val state_view : node_state -> View.t
(** [state_view s] is the node's view — the only window onto the graph
    a node-local function has, as in the one-round model. *)

(** [state_extra s] is the stashed messages, most recent first
    (broadcasts land here via the conventional {!push_extra} in
    [receive]). *)
val state_extra : node_state -> Message.t list

val push_extra : node_state -> Message.t -> node_state

(** The referee side of a BCC protocol: streaming state threaded
    through all rounds.  [r_absorb] consumes one node message at a
    time (the chunked feed discipline of {!Protocol.stream});
    [r_broadcast] closes rounds [1 .. rounds - 1] with the reply;
    [r_finish] closes the last round with the decision. *)
type ('s, 'a) round_stream = {
  r_init : n:int -> 's;
  r_absorb : n:int -> round:int -> 's -> id:int -> Message.t -> 's;
  r_broadcast : n:int -> round:int -> 's -> 's * Message.t;
  r_finish : n:int -> 's -> 'a;
}

type 'a referee = Referee : ('s, 'a) round_stream -> 'a referee

type 'a t = {
  name : string;
  budget : budget;
  init : View.t -> node_state;
      (** initial state from the node's view; runs on a pool domain
          just before the node's round-1 [send] *)
  send : round:int -> node_state -> Message.t * node_state;
      (** per-round message; must fit the budget.  Only the returned
          state's stash is kept for the next round. *)
  receive : round:int -> broadcast:Message.t -> node_state -> node_state;
      (** deliver the referee's broadcast closing round [round]; runs
          on a pool domain just before the node's next [send] (round
          [round + 1]), never after the last round.  Its view reads
          count in that next round's [Node_local] event. *)
  referee : 'a referee;
  audit : Bound_audit.budget option;
      (** the theorem budget each round's bits are audited under in
          [refnet report] (the {!budget} field is the enforced
          bandwidth contract); [None]: nothing to audit *)
}

type transcript = {
  rounds : int;
  bits_limit : int;  (** the enforced per-round cap, [bits_per_round n] *)
  per_round_max_bits : int array;  (** largest node message, per round *)
  per_round_total_bits : int array;  (** summed node bits, per round *)
  broadcast_bits : int array;  (** referee broadcasts (rounds - 1 entries) *)
  max_bits : int;  (** largest node message overall *)
  total_bits : int;  (** all node bits over all rounds *)
  faulted_ids : int list;
}

(** [run p g] executes the rounds over the materialized graph.  Each
    round's uplink is a {!Simulator.uplink} round delivered per
    [delivery] (default [In_order]).  A [Faulty] plan is re-applied to
    every round's uplink (a crashed node stays crashed; the channel is
    hit once per round, and [faulted_ids] is the union): message
    production — and hence the transcript and the budget check —
    measures what nodes {e sent}, the referee sees the post-fault
    deliveries, and an empty plan is bit-identical to [In_order].
    [Shuffled] draws fresh compute and arrival orders every round.
    @raise Invalid_argument if [p.budget.rounds < 1] or
    [p.budget.bits_per_round n < 1], naming the offending field —
    checked before any message is produced, never reported as a
    spurious {!Budget_exceeded} — or if [chunk < 1].
    @raise Budget_exceeded when a message breaks the budget. *)
val run :
  ?domains:int ->
  ?chunk:int ->
  ?delivery:Simulator.delivery ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a t ->
  Graph.t ->
  'a * transcript

(** [run_source p src] is {!run} over any backend; spans and metrics
    carry the [[src=<backend>]] decoration outermost (outside
    [[round=r]]), and [?chunk] bounds live messages per round to
    O(chunk) with a bit-identical transcript. *)
val run_source :
  ?domains:int ->
  ?chunk:int ->
  ?delivery:Simulator.delivery ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a t ->
  Graph_source.t ->
  'a * transcript

(** [harden_referee r] is the BCC analogue of
    {!Protocol.harden_referee}, over one {!Verdict.ledger} for the whole
    run: absorbs that raise a {!Protocol.default_malformed} exception
    are contained and recorded, out-of-range senders and per-round
    duplicates are recorded, and each broadcast closes a round
    ({!Verdict.close_round}), so ids whose message never arrived in
    some round are reported missing — a crashed node degrades the run
    to [Degraded]/[Inconclusive] instead of raising.  A broadcast that
    raises makes the run [Inconclusive].  Otherwise {!Protocol.settle}
    decides: [Decided] of the inner answer on a clean channel, else
    [on_fault] with the report and the inner referee's salvage answer
    (or [None] if finishing raised). *)
val harden_referee :
  ?on_fault:(Verdict.fault_report -> 'a option -> 'a Verdict.t) ->
  'a referee ->
  'a Verdict.t referee

(** [harden p] wraps the whole protocol: referee hardened as above,
    name suffixed [+hardened], audit budget dropped (a hardened run is
    exempt from the bound audit, as for one-round protocols). *)
val harden :
  ?on_fault:(Verdict.fault_report -> 'a option -> 'a Verdict.t) ->
  'a t ->
  'a Verdict.t t

(** [of_one_round p] embeds a one-round protocol: one round, unbounded
    budget, the streaming referee fed through {!Protocol.start} /
    {!Protocol.feed} / {!Protocol.finish} — no message vector is ever
    materialized.  The lifted protocol's budget becomes the audit
    budget, so its one round audits under the one-round theorem. *)
val of_one_round : 'a Protocol.t -> 'a t

(** The two-round adaptive reconstruction: the one-round protocol of
    Theorem 5 must fix [k] in advance — every node needs it to size the
    power sums — whereas two rounds reconstruct {e any} graph with
    message sizes matched to its actual degeneracy.  Round 1 ships the
    degree sequence, the referee derives an upper bound
    [k-hat >= degeneracy(G)] and broadcasts it, round 2 is Algorithm 3
    at [k = k-hat] (streamed straight into the degeneracy referee's
    feed). *)
module Adaptive_degeneracy : sig
  (** [degree_bound degrees] is the referee's round-1 inference: the
      largest [d] such that at least [d + 1] nodes have degree at least
      [d] — an upper bound on the degeneracy computable from degrees
      alone (any subgraph of minimum degree [delta] has [delta + 1]
      vertices of degree at least [delta] in [G]). *)
  val degree_bound : int array -> int

  (** [protocol ()] reconstructs arbitrary graphs in two rounds with
      round-2 messages of [O(k_hat^2 log n)] bits (data-dependent, so
      the budget is {!unbounded} and there is no audit budget). *)
  val protocol : unit -> Graph.t option t
end
