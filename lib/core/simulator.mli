(** Protocol execution over a concrete network.

    The simulator enforces the model's information boundary: the local
    phase builds each node's {!View} — the engine is the only place
    views of real nodes are constructed — and the referee phase streams
    the message vector into the protocol's referee.  Message lengths are
    recorded exactly, in bits.

    Every entry point takes an optional {!Trace.sink}; the default
    {!Trace.null} costs nothing.  Events are emitted from the calling
    domain only, never from pool workers, so sinks need not be
    thread-safe.

    Every entry point also takes an optional {!Metrics.t} registry.
    When given, a run records: counter [refnet_runs_total]; counter
    [refnet_messages_total] and histograms [refnet_message_bits] /
    [refnet_view_queries] over the local phase; timers
    [refnet_local_phase] / [refnet_referee_phase] around the two
    phases (plus the {!Parallel} pool timers); histogram
    [refnet_run_max_bits] and counter [refnet_run_bits_total] from the
    transcript; and (under [Faulty] delivery) counter
    [refnet_faults_injected_total].  Like trace events, metrics are
    recorded from the calling domain only.  When absent, the
    uninstrumented fast path runs. *)

type transcript = {
  n : int;
  message_bits : int array;  (** [message_bits.(i - 1)] for node [i] *)
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
      (** sender ids the channel hit during this run ([Faulty]
          delivery); [[]] otherwise.  Message lengths always
          measure what nodes {e sent}, pre-fault — frugality is a
          property of the protocol, not of the channel. *)
}

(** How the referee receives a round's messages.
    - [In_order]: in identifier order; the only schedule that honours
      [?chunk].
    - [Faulty plan]: nodes compute honestly, then the channel crashes,
      truncates, flips, duplicates or re-addresses individual messages
      per [plan] ({!Faults.apply}).  One [Fault_injected] event fires
      per in-scope plan entry, after the local phase and before any
      absorb; the transcript records the hit ids in [faulted_ids].  An
      empty plan is bit-identical to [In_order] — same output, same
      transcript, same event stream — at any pool width.
    - [Shuffled rng]: local functions run in one random order and the
      referee absorbs in another (two permutations drawn from [rng], in
      that sequence) — a check that nothing in a protocol depends on
      scheduling (the paper notes one-round protocols tolerate
      asynchrony).  [Referee_absorb] events fire in arrival order.

    [Faulty] and [Shuffled] address the whole message vector, so they
    run unchunked whatever [?chunk] says. *)
type delivery = In_order | Faulty of Faults.plan | Shuffled of Random.State.t

(** [local_phase ?domains ?trace p g] runs every node's local function,
    fanned out across the {!Parallel} domain pool ([?domains] selects
    the pool width; the default honours [REFNET_DOMAINS]).  Local
    functions are pure by the model's information boundary, and each
    message is written into its slot by identifier, so the resulting
    vector is bit-identical to a sequential run at any width.  With a
    live [trace], one [Node_local] event per node is emitted (in
    identifier order, after the parallel section).  Views are built on
    the allocation-lean slice path ({!View.of_slice}) — no per-node
    neighbour list is materialized. *)
val local_phase :
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph.t ->
  Message.t array

(** [local_phase_source] is {!local_phase} over any {!Graph_source}
    backend.  All backends present identical neighbour runs for the
    same labelled graph, so the message vector is bit-identical across
    them. *)
val local_phase_source :
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph_source.t ->
  Message.t array

(** [run ?domains ?delivery ?trace p g] executes both phases; returns
    the referee's output and the transcript.  The referee absorbs
    messages per [delivery] (default [In_order]).  The transcript is
    byte-identical whatever [domains] is — parallelism is an execution
    detail, never observable in the model. *)
val run :
  ?domains:int ->
  ?delivery:delivery ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph.t ->
  'a * transcript

(** [run_source ?chunk p src] is {!run} over any {!Graph_source}
    backend.  The span/done labels gain a [\[src=<backend>\]]
    decoration (display only: the done events carry the protocol's
    budget, so backend-tagged runs audit under the same theorem), and
    counter
    [refnet_source_runs_total\{backend="..."\}] is bumped when metrics
    are on.

    [?chunk] bounds live message storage: with [chunk = c < n] the
    engine alternates computing [c] messages in parallel with feeding
    them to the streaming referee in identifier order, so peak memory
    is O(c) messages + O(n) ints (the transcript) + the referee state —
    the schedule that lets a million-node implicit source run in a
    frontier-sized footprint.  Output and transcript are bit-identical
    for every chunk size; only trace-event interleaving and the
    per-absorb latency sampling (skipped when chunked) differ.  Default:
    unchunked.
    @raise Invalid_argument if [chunk < 1], naming the field. *)
val run_source :
  ?domains:int ->
  ?chunk:int ->
  ?delivery:delivery ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph_source.t ->
  'a * transcript

(** {1 The uplink round}

    Every engine — this one, {!Coalition} and each round of {!Bcc} —
    runs its node-to-referee round through {!uplink}: produce a block
    of messages in parallel, account for the block in identifier
    order, deliver it per the schedule, absorb, emit [Referee_absorb].
    Engines supply only what differs, as a {!producer}. *)

(** An engine's side of an uplink round, over per-node items ['x]
    (a message, or a message with the node's next state).
    [produce ~order ~base ~len] computes the items of nodes
    [base + 1 .. base + len], in the 0-based index [order] when one is
    given (only under [Shuffled], with [base = 0] and [len = n]).
    [message x] is the message item [x] carries.  [account i x] runs on
    the submitting domain, in identifier order, for node [i + 1], after
    its block is produced and before any of it is delivered. *)
type 'x producer = {
  produce : order:int array option -> base:int -> len:int -> 'x array;
  message : 'x -> Message.t;
  account : int -> 'x -> unit;
}

(** [uplink ?chunk ~delivery ~trace ~metrics ~sample_absorbs ~n e
    ~absorb] executes one uplink round of [n] nodes.  Per block (all
    [n] nodes unless [In_order] with [chunk < n]) it produces and
    accounts under timer [refnet_local_phase], then delivers under
    timer [refnet_referee_phase], calling [absorb] and emitting
    [Referee_absorb] per delivery.  With [sample_absorbs], an unchunked
    round samples every 64th absorb into [refnet_absorb_ns].  Returns
    the ids a [Faulty] plan hit ([[]] otherwise).
    @raise Invalid_argument if [chunk < 1], naming the field. *)
val uplink :
  ?chunk:int ->
  delivery:delivery ->
  trace:Trace.sink ->
  metrics:Metrics.t option ->
  sample_absorbs:bool ->
  n:int ->
  'x producer ->
  absorb:(id:int -> Message.t -> unit) ->
  int list

(** [in_parallel ?domains ?metrics f] is the per-node producer over the
    {!Parallel} pool: item [i] is [f i] (0-based), computed in [order]
    when one is given, landing in its own slot either way. *)
val in_parallel :
  ?domains:int ->
  ?metrics:Metrics.t ->
  (int -> 'x) ->
  order:int array option ->
  base:int ->
  len:int ->
  'x array

(** [referee_round ?chunk ~delivery ~trace ~metrics r ~n e] is one
    {!uplink} round into the one-round referee [r], with absorb
    sampling: the referee's output and the round's transcript.  The
    span and its {!close_run} stay with the caller. *)
val referee_round :
  ?chunk:int ->
  delivery:delivery ->
  trace:Trace.sink ->
  metrics:Metrics.t option ->
  'a Protocol.referee ->
  n:int ->
  'x producer ->
  'a * transcript

(** [view_of src ~n i] is node [i + 1]'s view, backed directly by the
    source's neighbour slice — the only place views of real nodes are
    built. *)
val view_of : Refnet_graph.Graph_source.t -> n:int -> int -> View.t

(** [maybe_time metrics name f] is [f ()], timed under [name] when
    metrics are on. *)
val maybe_time : Metrics.t option -> string -> (unit -> 'a) -> 'a

(** [query_total c] sums a view audit's reads. *)
val query_total : View.counts -> int

(** [observe_source metrics src] bumps counter
    [refnet_source_runs_total\{backend="..."\}] when metrics are on —
    every [*_source] entry point, here and in {!Coalition} and {!Bcc}. *)
val observe_source : Metrics.t option -> Refnet_graph.Graph_source.t -> unit

(** [close_run ~trace ~metrics ~label ~budget ~n ~max_bits ~total_bits]
    is the epilogue every engine runs after its referee finishes: the
    run metrics, then a [Referee_done] for [label] carrying [budget],
    then the [Span_end] that closes [label]'s span. *)
val close_run :
  trace:Trace.sink ->
  metrics:Metrics.t option ->
  label:string ->
  budget:Bound_audit.budget option ->
  n:int ->
  max_bits:int ->
  total_bits:int ->
  unit

(** [is_frugal t ~c] checks [max_bits <= c * ceil(log2 (n + 1))] — the
    frugality test at a specific constant [c]. *)
val is_frugal : transcript -> c:int -> bool

(** [frugality_ratio t] is [max_bits / ceil(log2 (n + 1))], the measured
    constant in front of [log n]. *)
val frugality_ratio : transcript -> float

val pp_transcript : Format.formatter -> transcript -> unit
