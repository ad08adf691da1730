(** Messages sent to the referee.

    A message is a genuine bit string — frugality ([O(log n)] bits per
    node, Definition 1) is measured on real lengths, never estimated. *)

open Refnet_bits

type t = Bitvec.t

(** [bits m] is the exact length in bits. *)
val bits : t -> int

(** [of_writer w] freezes a writer's contents into a message. *)
val of_writer : Bit_writer.t -> t

(** [reader m] starts decoding the message. *)
val reader : t -> Bit_reader.t

val empty : t

(** [concat ms] joins messages; used by reduction protocols that bundle
    several simulated oracle messages into one (each should be written
    self-delimiting by the caller). *)
val concat : t list -> t

(** Self-delimiting framing: each part is written as a gamma-coded
    length followed by the raw bits, so a bundle of [count] parts —
    including empty ones — splits back exactly. *)

exception Malformed
(** The one exception the framing decoders raise on adversarial input:
    a truncated length header, a declared length exceeding the bits
    actually present, or an absurd gamma width.  It wraps (and replaces
    at this API) {!Refnet_bits.Bit_reader.Exhausted} and the
    [Invalid_argument] failures of the underlying bit decoders, so
    referees need to contain exactly one exception family. *)

(** [bundle parts] frames and concatenates. *)
val bundle : t list -> t

(** [unbundle ~count m] splits a bundle back into [count] parts.
    @raise Malformed if a declared part length exceeds the remaining
    bits, or a length header is truncated or overflows.  Never raises
    [Bit_reader.Exhausted] or [Invalid_argument]. *)
val unbundle : count:int -> t -> t list

(** [write_framed w m] appends one framed part to a writer. *)
val write_framed : Bit_writer.t -> t -> unit

(** [read_framed r] reads one framed part.
    @raise Malformed under the same conditions as {!unbundle}. *)
val read_framed : Bit_reader.t -> t

(** Integrity seals for the hardened (fault-tolerant) protocols.

    A seal appends a 32-bit FNV-1a digest of [(n, id,
    payload)] to the payload.  The digest binds the message to its
    claimed sender, so a referee that checks it against the {e delivery}
    identifier detects bit flips, truncation and spoofed sender ids in
    one check.  This is an error-{e detecting} code against channel
    faults, not a MAC: collisions exist but are a [2^-32] event for the
    fault model's oblivious corruptions.  The sealed protocols seal and
    check through {!Protocol.sealed}, which reads each payload in place
    with {!verify} and {!payload_reader}. *)

(** [seal ~n ~id m] is [m] followed by its digest. *)
val seal : n:int -> id:int -> t -> t

(** [verify ~n ~id m] is true when [m] is long enough to hold a digest
    and its digest matches the claimed [(n, id)].  It reads [m] in
    place. *)
val verify : n:int -> id:int -> t -> bool

(** [payload_reader m] reads the payload of a sealed [m] in place: the
    reader stops at the digest, so reading past the payload raises
    {!Refnet_bits.Bit_reader.Exhausted} and never yields a digest bit.
    Check the seal with {!verify} first.
    @raise Invalid_argument if [m] is shorter than a digest. *)
val payload_reader : t -> Bit_reader.t

(** [unseal ~n ~id m] copies the payload out when [verify ~n ~id m]:
    the reference the in-place path is measured and tested against. *)
val unseal : n:int -> id:int -> t -> t option

val equal : t -> t -> bool
