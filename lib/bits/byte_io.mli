(** Big-endian byte fields: the one codec behind serve's wire frames
    and the flight recorder's dumps.

    Both formats are sequences of fixed-width big-endian integers,
    u16-length-prefixed strings and packed bit strings, grouped into
    {e records}: [len u32 | fnv32(body) u32 | body], where the digest is
    {!Fnv} over the body.  {!Writer} builds them in one growable buffer;
    {!Reader} is a bounds-checked cursor over received bytes. *)

module Writer : sig
  type t

  (** [create n] is an empty writer with room for [n] bytes; it grows. *)
  val create : int -> t

  val length : t -> int

  (** [truncate w n] drops every byte past the first [n].
      @raise Invalid_argument if [n] is negative or past [length w]. *)
  val truncate : t -> int -> unit

  (** [take w] is the bytes written; [w] is then empty.  They are
      copied out unless they fill [w]'s buffer exactly, which is then
      handed over whole: a writer {!create}d at the exact size of what
      it will hold allocates its bytes once. *)
  val take : t -> string

  (** [u8], [u16] and [u32] write the low 8, 16 and 32 bits of an
      integer; [u64] writes all 64: session trace ids travel whole. *)
  val u8 : t -> int -> unit

  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit

  (** [raw w s] writes the bytes of [s], with no length. *)
  val raw : t -> string -> unit

  (** [str w s] writes a u16 length, then the bytes of [s].
      @raise Invalid_argument if [String.length s > 65535]; nothing is
      written then. *)
  val str : t -> string -> unit

  (** [bits w v] writes a u32 bit length, then the [(length v + 7) / 8]
      bytes of [v] packed MSB-first: the exact bit string round-trips,
      so a message's bits are accounted the same across the wire. *)
  val bits : t -> Bitvec.t -> unit

  (** [record w body] writes one record: it reserves the 8-byte
      [len | fnv32] header, runs [body w], then fills the header in
      with the length and digest of what [body] wrote. *)
  val record : t -> (t -> unit) -> unit
end

(** The one failure of {!Reader}: the bytes do not hold what the
    format says.  The message says why. *)
exception Malformed of string

(** [failf fmt ...] raises {!Malformed} with the formatted message, for
    format checks above the field level (an unknown tag or code). *)
val failf : ('a, unit, string, 'b) format4 -> 'a

module Reader : sig
  type t

  val of_string : string -> t

  (** [of_bytes b ~off ~len] reads [b] in place; [b] must not change
      while the reader is in use.
      @raise Invalid_argument if the slice is out of bounds. *)
  val of_bytes : Bytes.t -> off:int -> len:int -> t

  (** [pos r] is the number of bytes read since [r] was made. *)
  val pos : t -> int

  val remaining : t -> int

  (** Every read below raises [Malformed "payload truncated: need N
      bytes at offset K"] when fewer than [N] bytes are left, and then
      moves nothing.  [K] is {!pos}; [u64] reads two u32 halves, so [N]
      is 4 when either half is missing. *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64

  (** [raw r n] is the next [n] bytes; [skip r n] moves past them. *)
  val raw : t -> int -> string

  val skip : t -> int -> unit
  val str : t -> string

  (** [bits r] reads what {!Writer.bits} writes.  The declared length
      is checked against the bytes present before anything is
      allocated, so a hostile length cannot force a large allocation.
      Pad bits set in the last byte are cleared. *)
  val bits : t -> Bitvec.t

  (** [sub r n] is a reader over the next [n] bytes, with its own
      {!pos} from 0; [r] moves past them. *)
  val sub : t -> int -> t

  (** [fnv r] is the {!Fnv} digest of the bytes [r] has left; it moves
      nothing. *)
  val fnv : t -> int
end
