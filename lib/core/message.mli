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

    A seal appends a {!digest_bits}-bit FNV-1a digest of [(n, id,
    payload)] to the payload.  The digest binds the message to its
    claimed sender, so a referee that [unseal]s with the {e delivery}
    identifier detects bit flips, truncation and spoofed sender ids in
    one check.  This is an error-{e detecting} code against channel
    faults, not a MAC: collisions exist but are a [2^-32] event for the
    fault model's oblivious corruptions. *)

(** Number of digest bits appended by {!seal}. *)
val digest_bits : int

(** [seal ~n ~id m] is [m] followed by its digest. *)
val seal : n:int -> id:int -> t -> t

(** [unseal ~n ~id m] recovers the payload when the digest matches the
    claimed [(n, id)]; [None] when the message is too short or the
    digest disagrees. *)
val unseal : n:int -> id:int -> t -> t option

(** [verify ~n ~id m] is [unseal ~n ~id m <> None], without the copy.
    A referee that keeps [m] itself must then read only its first
    [bits m - digest_bits] bits, and must check the exact length first:
    a short message would otherwise read into the digest bits instead
    of running out. *)
val verify : n:int -> id:int -> t -> bool

val equal : t -> t -> bool
