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

    Everything after the kind byte is one {!Refnet_bits.Byte_io}
    record, the layout flight dumps use too, and payload fields are
    written and read with the same codec.

    Decoding never raises: the incremental {!decoder} returns a typed
    {!step}, and {!Frame} folds every payload failure into [Error].
    This is the invariant the frame fuzzer in [test_fuzz] locks down — arbitrary bytes produce [`Frame]/[`Awaiting]/[`Corrupt],
    never an exception. *)

val header_bytes : int

(** [frame w ~kind payload] appends one frame to [w]: the header, then
    whatever [payload w] writes.  If [payload] raises, [w] is left as it
    was and the exception goes on.
    @raise Invalid_argument if [kind] is outside [0..255]. *)
val frame :
  Refnet_bits.Byte_io.Writer.t ->
  kind:int ->
  (Refnet_bits.Byte_io.Writer.t -> unit) ->
  unit

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

(** What {!next} and {!next_view} return. *)
type 'p next =
  | Frame of { kind : int; payload : 'p }
  | Awaiting  (** not enough bytes yet — read more *)
  | Corrupt of string
      (** bad magic, oversized declared length, or digest mismatch.
          The stream cannot be resynchronized; the connection must be
          quarantined. *)

type step = string next

(** [next d] extracts the next complete frame, its payload copied out.
    After [Corrupt] the decoder sticks: every further [next] returns
    the same error. *)
val next : decoder -> step

(** A frame's payload where it lies: [len] bytes of [buf] from [off]. *)
type view = { buf : Bytes.t; off : int; len : int }

(** [next_view d] is {!next} without the copy: the payload is a view of
    [d]'s own buffer.  {b Lifetime}: the view is valid until the next
    {!push} on [d], which may move or overwrite those bytes; further
    [next_view] calls leave it intact.  Whatever outlives the frame must
    be copied out of the view before that [push]. *)
val next_view : decoder -> view next
