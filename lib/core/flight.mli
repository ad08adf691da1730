(** Crash-safe flight recorder: one ring buffer of trace events,
    binary-encoded at dump time.

    The referee daemon's evidence trail — which frames arrived, which
    bits were charged, which referee state a session reached — must
    survive the process that produced it.  A {!t} holds one
    fixed-capacity ring; {!record} appends a {!Trace.event} (and {!note}
    an out-of-band lifecycle fact) tagged with a 64-bit session trace id
    and a sequence number.  When the ring is full the {e oldest} entry
    is overwritten and a drop counter ticks; recording never blocks and
    allocates only the entry itself.

    {b One writer.} A recorder is not thread-safe: the serve engine
    records from its own thread only, and the deep lint's race pass
    reports {!record}, {!note} or {!reset} on a captured recorder inside
    a [Parallel] closure.  The sequence number is the count of entries
    recorded before, so ring order is sequence order.

    {b Determinism.} {!dump} renders entries oldest first with a fixed
    binary layout — two processes that record the same entries in the
    same order produce byte-identical dumps, whatever the domain width.

    {b Hostile input.} {!decode} is total: truncated headers, corrupt
    digests and malformed bodies become {!finding}s, never exceptions —
    a half-written dump from a [kill -9] still yields every intact
    record.

    The dump format is documented in DESIGN.md §15. *)

type t

(** One recorded entry, as the ring holds it and as {!decode} returns
    it.  Notes share the sequence space with events but are {e not}
    trace events: {!Report} never sees them. *)
type entry =
  | Event of { seq : int; trace : int64; ev : Trace.event }
  | Note of { seq : int; trace : int64; code : string; detail : string }

(** [create ?capacity ()] is a recorder whose ring holds [capacity]
    entries (default 4096, clamped to at least 16). *)
val create : ?capacity:int -> unit -> t

(** [record t ~trace ev] appends [ev] under session id [trace]. *)
val record : t -> trace:int64 -> Trace.event -> unit

(** [note t ~trace ~code ~detail] appends an out-of-band lifecycle fact
    (quarantine, credit violation, typed reject, …). *)
val note : t -> trace:int64 -> code:string -> detail:string -> unit

(** Entries ever recorded (including since-overwritten ones). *)
val recorded : t -> int

(** Entries overwritten before any dump could capture them. *)
val dropped : t -> int

(** Entries currently held in the ring. *)
val occupancy : t -> int

(** Ring capacity. *)
val capacity : t -> int

(** Forget everything, including counters.  For benchmarks and tests;
    not crash-safe bookkeeping. *)
val reset : t -> unit

(** [dump t] is the [.flight] byte image of the current contents:
    header, then every live entry oldest first, length-framed and
    digest-protected. *)
val dump : t -> string

(** [dump_to_file t path] writes {!dump} atomically enough for a crash
    dump (single [open]/[write]/[close]); [Error] carries the reason. *)
val dump_to_file : t -> string -> (unit, string) result

type finding = { f_offset : int; f_reason : string }

type decoded = {
  d_recorded : int;  (** recorder's lifetime count at dump time *)
  d_dropped : int;  (** recorder's drop count at dump time *)
  d_entries : entry list;  (** intact records, in sequence order *)
  d_findings : finding list;  (** everything wrong with the byte image *)
}

(** Total: any byte string decodes to entries plus findings.  A record
    whose digest holds but whose body does not decode to an entry (an
    unknown tag, a fault string {!Faults.fault_of_string} refuses,
    trailing bytes) is a finding. *)
val decode : string -> decoded

(** [decode_file path] reads and {!decode}s; [Error] only for I/O
    failures (a corrupt {e readable} file still decodes). *)
val decode_file : string -> (decoded, string) result

(** [open_traces entries] lists sessions found mid-flight: trace ids
    with recorded activity but no terminal ["done"] event and no
    terminal note, each with a one-line evidence summary suitable for a
    [Rejected {reason = Evidence}] frame.  Trace id 0 (unsessioned
    activity) is ignored. *)
val open_traces : entry list -> (int64 * string) list

(** 16-digit lowercase hex, zero-padded — the wire/JSON spelling. *)
val hex_of_trace : int64 -> string

val trace_of_hex : string -> int64 option
