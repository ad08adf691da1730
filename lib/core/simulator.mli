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
    transcript; and (under {!run_faulty}) counter
    [refnet_faults_injected_total].  Like trace events, metrics are
    recorded from the calling domain only.  When absent, the
    uninstrumented fast path runs. *)

type transcript = {
  n : int;
  message_bits : int array;  (** [message_bits.(i - 1)] for node [i] *)
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
      (** sender ids the channel hit during this run ({!run_faulty});
          [[]] for fault-free entry points.  Message lengths always
          measure what nodes {e sent}, pre-fault — frugality is a
          property of the protocol, not of the channel. *)
}

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

(** [run ?domains ?trace p g] executes both phases; returns the
    referee's output and the transcript.  The referee absorbs messages
    in identifier order.  The transcript is byte-identical whatever
    [domains] is — parallelism is an execution detail, never observable
    in the model. *)
val run :
  ?domains:int ->
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
    unchunked (the historical two-phase schedule). *)
val run_source :
  ?domains:int ->
  ?chunk:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph_source.t ->
  'a * transcript

(** [run_faulty ?faults ?domains ?trace p g] is [run] with a
    deterministic fault plan applied between the two phases: nodes
    compute honestly, then the channel crashes, truncates, flips,
    duplicates or re-addresses individual messages per [faults] (see
    {!Faults.apply}).  One [Fault_injected] event fires per in-scope
    plan entry, after the local phase and before any absorb; the
    transcript records the hit ids in [faulted_ids].  With an empty
    plan the run is bit-identical to [run] — same output, same
    transcript, same event stream — at any [domains] width. *)
val run_faulty :
  ?faults:Faults.plan ->
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph.t ->
  'a * transcript

(** [run_faulty_source] is {!run_faulty} over any backend, with the
    [\[src=...\]] label decoration of {!run_source}.  Fault plans
    address the full message vector, so this entry point never
    chunks. *)
val run_faulty_source :
  ?faults:Faults.plan ->
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph_source.t ->
  'a * transcript

(** [run_async ?rng ?domains ?trace p g] is [run] but evaluates local
    functions in a random order and delivers messages to the streaming
    referee in {e another} random arrival order — a check that nothing
    in a protocol depends on scheduling, including the referee's absorb
    order (the paper notes one-round protocols tolerate asynchrony).
    [Referee_absorb] trace events fire in arrival order. *)
val run_async :
  ?rng:Random.State.t ->
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph.t ->
  'a * transcript

(** [run_async_source] is {!run_async} over any backend, with the
    [\[src=...\]] label decoration of {!run_source}. *)
val run_async_source :
  ?rng:Random.State.t ->
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph_source.t ->
  'a * transcript

(** [transcript_of_messages msgs] summarizes an externally-built message
    vector. *)
val transcript_of_messages : Message.t array -> transcript

(** [observe_source metrics src] bumps counter
    [refnet_source_runs_total\{backend="..."\}] when metrics are on —
    every [*_source] entry point, here and in {!Coalition} and {!Bcc}. *)
val observe_source : Metrics.t option -> Refnet_graph.Graph_source.t -> unit

(** [close_run ~trace ~metrics ~label ~budget t] is the epilogue every
    one-round engine runs after its referee finishes: the transcript
    metrics, then a [Referee_done] for [label] carrying [budget], then
    the [Span_end] that closes [label]'s span.  Shared with
    {!Coalition}. *)
val close_run :
  trace:Trace.sink ->
  metrics:Metrics.t option ->
  label:string ->
  budget:Bound_audit.budget option ->
  transcript ->
  unit

(** [is_frugal t ~c] checks [max_bits <= c * ceil(log2 (n + 1))] — the
    frugality test at a specific constant [c]. *)
val is_frugal : transcript -> c:int -> bool

(** [frugality_ratio t] is [max_bits / ceil(log2 (n + 1))], the measured
    constant in front of [log n]. *)
val frugality_ratio : transcript -> float

val pp_transcript : Format.formatter -> transcript -> unit
