(** One-round protocols (the paper's Definition 1).

    A protocol is a family of pairs [(local_n, referee_n)]: the local
    function maps a node's knowledge — its {!View}: identifier,
    neighbour set, network size — to a message, and the referee maps the
    [n] collected messages to the output.  Following the paper, the
    local function must be evaluable at {e any} view [(i, N)] with
    [N ⊆ {1..n}], not only views arising from an actual input graph; the
    reduction protocols of Section II exploit exactly this by evaluating
    an oracle's local function on fictitious gadget vertices.

    The referee is {e streaming}: it starts from [init], [absorb]s one
    message at a time, and [finish]es into the output.  The paper's
    referee waits for all [n] messages and knows which node sent which
    ([absorb] carries the sender's identifier), so this is the same
    model — but incremental referees (the forest sums of §III.A,
    coalition connectivity, Lemma 1 counting) can hold O(1)-per-node
    state instead of a materialized message array, and the reduction
    referees can feed a simulated oracle without allocating per-pair
    message arrays.  Array-style referees keep a one-line spelling via
    {!batch}.

    Referee contract: [absorb] must be insensitive to arrival order —
    for any permutation π of [1..n], folding the messages in order π
    must [finish] to the same output as identifier order (the simulator
    checks this under [Shuffled] delivery, {!Simulator.delivery}).  [init]/[absorb]/[finish]
    must not mutate anything outside the state they thread.

    The output type is a parameter: reconstruction protocols produce
    [Graph.t option], decision protocols produce [bool].  This mirrors
    the paper's untyped [{0,1}*] output without forcing callers to
    re-parse bit strings. *)

(** A streaming referee with state ['s]: [Γ^g_n] as a fold.  [absorb]
    receives the sender's identifier — the referee knows who sent what,
    faithful to the model. *)
type ('s, 'a) stream = {
  init : n:int -> 's;
  absorb : n:int -> 's -> id:int -> Message.t -> 's;
  finish : n:int -> 's -> 'a;
}

(** A referee with its state type hidden. *)
type 'a referee = Referee : ('s, 'a) stream -> 'a referee

type 'a t = {
  name : string;  (** for reports and transcripts *)
  local : View.t -> Message.t;
      (** [Γ^l_n(i, N)]: the message a node sends given its view.  The
          view is the {e only} source of local knowledge; implementations
          must be pure — same view contents, same message. *)
  referee : 'a referee;  (** [Γ^g_n] as a streaming fold *)
  budget : Bound_audit.budget option;
      (** the theorem budget every run is audited under — declared by
          the protocol's constructor next to its message layout, and
          carried on the run's [Referee_done] events.  [None] when
          there is no theorem to audit. *)
}

(** [streaming ~init ~absorb ~finish] packs a referee. *)
val streaming :
  init:(n:int -> 's) ->
  absorb:(n:int -> 's -> id:int -> Message.t -> 's) ->
  finish:(n:int -> 's -> 'a) ->
  'a referee

(** [batch global] adapts an array-style referee: state is the message
    vector indexed by identifier ([msgs.(i - 1)] for node [i]), filled
    by [absorb], decoded whole by [global] at [finish]. *)
val batch : (n:int -> Message.t array -> 'a) -> 'a referee

(** A referee mid-fold.  [feed]ing is how engine code (and the reduction
    referees simulating an oracle) streams messages without ever
    materializing an array. *)
type 'a feed

(** [start r ~n] opens a fold over [n] messages. *)
val start : 'a referee -> n:int -> 'a feed

(** [feed f ~id msg] absorbs node [id]'s message. *)
val feed : 'a feed -> id:int -> Message.t -> 'a feed

(** [finish f] closes the fold into the output. *)
val finish : 'a feed -> 'a

(** [run_referee r ~n msgs] folds a full message vector in identifier
    order.  The engines' instrumented, schedule-aware fold is
    {!Simulator.uplink}.
    @raise Invalid_argument if [Array.length msgs <> n]. *)
val run_referee : 'a referee -> n:int -> Message.t array -> 'a

(** [apply p ~n msgs] is [run_referee p.referee ~n msgs] — the old
    array-style global, for tests and harnesses that fabricate message
    vectors. *)
val apply : 'a t -> n:int -> Message.t array -> 'a

(** [map_output f p] is [p] with [f] applied to the referee's result;
    the messages, and so the budget, are unchanged. *)
val map_output : ('a -> 'b) -> 'a t -> 'b t

(** [rename name p] is [p] under a new name, with no budget: a renamed
    protocol (a reduction oracle, a recognition decider) answers a
    different question, so it leaves the audit. *)
val rename : string -> 'a t -> 'a t

(** [default_malformed e] classifies the exceptions a referee may raise
    while decoding a corrupted message: {!Refnet_bits.Bit_reader.Exhausted},
    {!Message.Malformed}, [Invalid_argument] and [Failure].  Anything
    else (assertion failures, [Out_of_memory], ...) is a bug, not a
    channel fault, and is re-raised. *)
val default_malformed : exn -> bool

(** [guarded ~init ~absorb ~finish] is a hardened referee over a
    {!Verdict.ledger}.  [absorb] sees only admitted ids: an id outside
    [1..n] is recorded malformed and a repeat duplicated, and neither
    reaches it.  An [absorb] that raises a {!default_malformed} exception
    leaves the state as it was and marks the id malformed; it must not
    have changed a mutable state before raising.  [finish ~n report st]
    receives the ledger's {!Verdict.report} with the state and chooses
    the verdict.  The sealed referees build on it directly: each keeps
    only its unseal, its parse and its salvage policy. *)
val guarded :
  init:(n:int -> 's) ->
  absorb:(n:int -> 's -> id:int -> Message.t -> 's) ->
  finish:(n:int -> Verdict.fault_report -> 's -> 'a) ->
  'a referee

(** [settle ?on_fault report finish] is the generic verdict policy of a
    hardened referee whose inner output is [finish ()].  On a clean
    channel ({!Verdict.channel_clean}) the output is [Decided]
    ([Inconclusive] if [finish] raises a {!default_malformed}
    exception).  Otherwise [on_fault report partial] chooses, where
    [partial] is [finish ()] if it still computes; without [on_fault]
    the output is [Inconclusive], naming the report's counts, and
    [finish] is not run. *)
val settle :
  ?on_fault:(Verdict.fault_report -> 'a option -> 'a Verdict.t) ->
  Verdict.fault_report ->
  (unit -> 'a) ->
  'a Verdict.t

(** [harden_referee ?on_fault r] is [r] under {!guarded}, finished by
    {!settle}: per-message decoding failures of [r] mark the sender
    malformed and the fold goes on; repeats are counted once and
    dropped; ids outside [1..n] are malformed.  Hardened protocols that
    can salvage a sound partial answer pass an [on_fault] smarter than
    the default [Inconclusive]. *)
val harden_referee :
  ?on_fault:(Verdict.fault_report -> 'a option -> 'a Verdict.t) ->
  'a referee ->
  'a Verdict.t referee

(** [harden ?on_fault p] is [p] with {!harden_referee}
    applied, ["+hardened"] appended to the name and no budget.  The
    local function is unchanged — hardening is purely referee-side, so
    it composes with any protocol.  Note: without redundancy in the messages
    themselves (see {!Message.seal}), a hardened referee can only
    contain faults that {e break} parsing; a bit flip that yields
    another well-formed message is indistinguishable from honest input
    to a generic wrapper.  The shipped [*.hardened] protocols seal their
    messages precisely to close that gap. *)
val harden :
  ?on_fault:(Verdict.fault_report -> 'a option -> 'a Verdict.t) ->
  'a t ->
  'a Verdict.t t
