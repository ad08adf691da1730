(** Structured execution traces.

    The engine emits one event per observable step of a run: a span pair
    around each phase, one [Node_local] per node (with its exact message
    length and its {!View} audit), one [Referee_absorb] per message the
    streaming referee consumes — in {e arrival} order, which under
    [Shuffled] delivery ({!Simulator.delivery}) is randomized — and a
    final [Referee_done] with the transcript summary.

    Sinks are pluggable and cost nothing when disabled: {!null} is a
    constructor the engine branches away from before entering any hot
    loop, so an untraced run allocates no events.  Events are emitted
    from the submitting domain only, after each parallel section
    completes — sinks need not be thread-safe.

    The JSONL sink writes one JSON object per line; the schema is
    documented in [EXPERIMENTS.md]. *)

type event =
  | Span_begin of { label : string; n : int }
  | Span_end of { label : string; n : int }
  | Node_local of { id : int; bits : int; queries : View.counts }
      (** node [id] produced a [bits]-bit message, reading its view
          [queries] times *)
  | Referee_absorb of { id : int; bits : int }
      (** the referee consumed node [id]'s message, in arrival order *)
  | Fault_injected of { id : int; fault : Faults.fault }
      (** the channel hit node [id]'s message ([Faulty] delivery,
          {!Simulator.delivery}); emitted once per in-scope plan
          entry, after the local phase and before any absorb — under
          {!Bcc.run}, once per plan entry {e per round} *)
  | Referee_broadcast of { round : int; bits : int }
      (** the {!Bcc} referee closed round [round] with a [bits]-bit
          broadcast heard by every node (absent after the final round,
          which ends in the decision instead) *)
  | Referee_done of {
      label : string;
      n : int;
      max_bits : int;
      total_bits : int;
      budget : Bound_audit.budget option;
          (** the theorem budget the run is audited under, as the
              protocol declared it; [None] for runs with no theorem to
              audit (hardened, sealed and renamed protocols) *)
    }

type sink =
  | Null
  | Emit of (event -> unit)
  | Emit_session of (int64 option -> event -> unit)
      (** a sink that also understands 64-bit session trace ids (the
          serve layer's flight-recorder ids); plain {!emit} delivers
          [None] *)

(** The disabled sink; emission is a no-op. *)
val null : sink

val is_null : sink -> bool

(** [make f] forwards every event to [f]. *)
val make : (event -> unit) -> sink

(** [emit sink ev] delivers [ev] (no-op on {!null}). *)
val emit : sink -> event -> unit

(** [emit_session sink ~session ev] delivers [ev] tagged with a session
    trace id.  Session-blind sinks ([Emit]) receive the bare event;
    {!jsonl} renders the id as a leading ["session_id"] field. *)
val emit_session : sink -> session:int64 -> event -> unit

(** [pretty fmt] renders events human-readably, one line each. *)
val pretty : Format.formatter -> sink

(** [jsonl oc] writes one JSON object per event per line.

    {b Flushing contract.} The sink flushes [oc] after every
    [Referee_done] event — each completed run is durable on disk even if
    the process then exits abnormally (the CLI's one-line-diagnostic
    exit-2 path does not unwind to the channel's closer).  Events of a
    run still in flight may be lost; the caller owns the channel and
    remains responsible for the final flush/close on the orderly path. *)
val jsonl : out_channel -> sink

(** [memory ()] is a sink that records events, and a function returning
    them in emission order — for tests (pair with {!balanced_spans}). *)
val memory : unit -> sink * (unit -> event list)

(** [balanced_spans events] checks the span discipline every engine
    entry point promises: [Span_begin]/[Span_end] pairs nest properly
    and matching pairs carry the same label, with nothing left open at
    the end. *)
val balanced_spans : event list -> bool

val pp_event : Format.formatter -> event -> unit

(** [json_of_event ?session ev] is the single-line JSON rendering used
    by {!jsonl}.  With [~session], a ["session_id"] field (16 lowercase
    hex digits) leads the object — an {e extra} field, so
    {!Report.ingest_line} accepts tagged and untagged lines alike. *)
val json_of_event : ?session:int64 -> event -> string

(** Defensive JSON string escaper shared with the decoders
    ({!Flight}). *)
val json_string : string -> string
