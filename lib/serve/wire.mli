(** Byte-level wire framing for [refnet serve].

    A frame is a 10-byte header followed by the payload:

    {v
      offset  size  field
      0       1     magic (0xF5)
      1       1     kind  (see {!Frame} for the kind space)
      2       4     payload length, big-endian
      6       4     FNV-1a 32-bit digest of the payload, big-endian
      10      len   payload bytes
    v}

    The digest is {!Refnet_bits.Fnv}, the error-{e detecting} FNV-1a
    that {!Core.Message.seal} also uses, applied at the transport layer: a flipped or
    truncated byte anywhere in a frame is caught before the payload is
    even parsed, so the daemon can quarantine the connection instead of
    feeding garbage to a session.  It is not a MAC.

    Decoding never raises: the incremental {!decoder} returns a typed
    {!step}, and the payload cursor ({!Get}) folds every failure into
    [Error].  This is the invariant the frame fuzzer in [test_fuzz]
    locks down — arbitrary bytes produce [`Frame]/[`Awaiting]/[`Corrupt],
    never an exception. *)

val magic : int
val header_bytes : int

(** [encode ~kind payload] is the full frame as bytes-in-a-string.
    @raise Invalid_argument if [kind] is outside [0..255]. *)
val encode : kind:int -> string -> string

(** Incremental frame decoder over a growing byte stream. *)
type decoder

(** [decoder ~max_frame ()] — frames whose declared payload length
    exceeds [max_frame] (default 1 MiB) are corrupt: a hostile length
    must not make the daemon buffer unboundedly. *)
val decoder : ?max_frame:int -> unit -> decoder

(** [push d b ~off ~len] appends received bytes. *)
val push : decoder -> bytes -> off:int -> len:int -> unit

(** [buffered d] is the number of bytes held but not yet decoded. *)
val buffered : decoder -> int

type step =
  | Frame of { kind : int; payload : string }
  | Awaiting  (** not enough bytes yet — read more *)
  | Corrupt of string
      (** bad magic, oversized declared length, or digest mismatch.
          The stream cannot be resynchronized; the connection must be
          quarantined. *)

(** [next d] extracts the next complete frame.  After [Corrupt] the
    decoder sticks: every further [next] returns the same error. *)
val next : decoder -> step

(** Payload field writers (byte-aligned, big-endian). *)
module Put : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit

  (** [u64 p v] writes all 64 bits big-endian — session trace ids
      travel whole. *)
  val u64 : t -> int64 -> unit

  (** [str p s] writes a 16-bit length then the bytes.
      @raise Invalid_argument if [String.length s > 65535]. *)
  val str : t -> string -> unit

  (** [bits p m] writes a message as a 32-bit bit-length followed by the
      bits packed most-significant-first into [ceil(len/8)] bytes — the
      exact bit string round-trips, preserving the model's "messages are
      genuine bit strings" accounting across the wire. *)
  val bits : t -> Core.Message.t -> unit

  val contents : t -> string
end

(** Payload field readers.  Every reader returns [Error _] on truncation
    or an out-of-range value instead of raising. *)
module Get : sig
  type t

  val create : string -> t
  val u8 : t -> (int, string) result
  val u16 : t -> (int, string) result
  val u32 : t -> (int, string) result
  val u64 : t -> (int64, string) result
  val str : t -> (string, string) result
  val bits : t -> (Core.Message.t, string) result

  (** [finished g] — all payload bytes consumed (trailing junk in a
      frame is a decode error at the {!Frame} layer). *)
  val finished : t -> bool
end
