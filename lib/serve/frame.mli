(** Typed frames of the serve protocol, layered on {!Wire}.

    Client-to-server kinds live in [0x01..0x7F], server-to-client kinds
    in [0x81..0xFF].  Both directions have encoders and decoders: the
    daemon decodes client frames, while the selftest load generator and
    the probe client decode server frames.

    Decoding a structurally valid wire frame can still fail (unknown
    kind, truncated payload, trailing junk, out-of-range enum); those
    failures come back as [Error reason] and the daemon treats them
    exactly like a corrupt frame — quarantine. *)

type client =
  | Hello of { version : int }
      (** 2 or 3 ({!version}); any other version, or a later [Hello]
          for another version than the connection's first, is a
          [Protocol_violation]. *)
  | Open of { open_id : int; protocol : string; n : int; trace : int64 }
      (** [open_id] is a client-chosen correlation token echoed in
          [Opened]/[Rejected].  On a v3 connection it is also the
          session's address: the client's [Msg]/[Finish]/[Abort] and
          the server's [Credit]/[Verdict] carry it in [session], so
          they may follow the [Open] before any reply.  Frames for an
          open that was [Rejected] are dropped as late; reusing the
          [open_id] of a live session is a [Protocol_violation].
          [trace] is the session trace id to run under: [0L] adopts the
          id the server minted at [Hello] (the normal path); a non-zero
          id resumes a previous session's identity, which a freshly
          restarted daemon answers with [Rejected {reason = Evidence}]
          if that id was found mid-flight in a crash dump. *)
  | Msg of { session : int; node : int; payload : Core.Message.t }
  | Finish of { session : int }
  | Abort of { session : int }
  | Ping of { token : int }
  | Bye

type reject_reason =
  | Overloaded  (** admission control shed the session; retry later *)
  | Draining  (** daemon is shutting down and accepts no new sessions *)
  | Unknown_protocol
  | Bad_n
  | Session_limit  (** per-connection session cap reached *)
  | Evidence
      (** the trace id was found mid-flight in a crash dump: the
          daemon refuses to resume and returns the evidence summary in
          [Rejected.detail] instead of silently forgetting the session *)

type error_code =
  | Protocol_violation
  | Corrupt_frame
  | Credit_exceeded
  | Slow_consumer
  | Internal

type status = Decided | Degraded | Inconclusive
type timeout_kind = No_timeout | Idle_timeout | Deadline_timeout

type server =
  | Welcome of { version : int; trace : int64; credit : int }
      (** [version] echoes the [Hello]'s.  [trace] is the 64-bit
          session trace id minted for this connection — every span,
          credit stall and quarantine the connection's sessions produce
          shares it, in jsonl traces, flight dumps and metrics alike.
          [credit] is every session's first send window; it is on the
          wire from version 3 only, and reads 0 below it. *)
  | Opened of { open_id : int; session : int; credit : int }
      (** [session] is the address of the session's later frames: a
          server-wide id on v2, the [open_id] itself on v3, where a
          client may ignore [Opened]. *)
  | Credit of { session : int; credit : int }
      (** grants [credit] further [Msg] frames on the session; the sum
          of outstanding grants is the client's send window. *)
  | Verdict of {
      session : int;
      status : status;
      timeout : timeout_kind;
      payload : string;  (** canonical rendering of the referee output,
          or the [Inconclusive] reason *)
      missing : int;
      malformed : int;
      duplicated : int;
      undetermined : int;
      trace : int64;
    }
  | Rejected of {
      open_id : int;
      reason : reject_reason;
      retry_after_ms : int;
      trace : int64;
      detail : string;
          (** for [Evidence]: the mid-flight summary decoded from the
              crash dump; empty for the other reasons *)
    }
  | Error of { code : error_code; detail : string }
      (** always followed by the server closing the connection *)
  | Pong of { token : int }

(** The newest wire version, 3.  A daemon also accepts 2. *)
val version : int

(** [write_client w f] appends the full wire bytes of [f] (header and
    payload) to [w].
    @raise Invalid_argument if a string field is longer than 65535
    bytes; [w] is left as it was. *)
val write_client : Refnet_bits.Byte_io.Writer.t -> client -> unit

val write_server : Refnet_bits.Byte_io.Writer.t -> server -> unit

(** [encode_client f] is the full wire bytes of [f], as {!write_client}
    writes them. *)
val encode_client : client -> string

val encode_server : server -> string

val decode_client : kind:int -> string -> (client, string) result

(** [decode_client_view ~kind v] is {!decode_client} read in place from
    a {!Wire.next_view} payload.  Nothing in the result shares [v]'s
    buffer: a [Msg] payload is copied out of it once, so the frame may
    outlive the view. *)
val decode_client_view : kind:int -> Wire.view -> (client, string) result
val decode_server : kind:int -> string -> (server, string) result

val pp_client : Format.formatter -> client -> unit
val pp_server : Format.formatter -> server -> unit

(** Every reject reason, with its wire code and its name. *)
val reject_table : (reject_reason * int * string) list

val reject_reason_to_string : reject_reason -> string
val error_code_to_string : error_code -> string
